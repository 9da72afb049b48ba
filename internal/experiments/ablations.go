package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/chaos"
	"lightpath/internal/collective"
	"lightpath/internal/cost"
	"lightpath/internal/engine"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// The ablation studies DESIGN.md calls out: design alternatives the
// paper's §4.1 and §5 discuss, measured against each other.

// AblationAllocResult compares centralized versus decentralized
// circuit allocation (§5, "Decentralized algorithms").
type AblationAllocResult struct {
	Requests                                 int
	CentralAttempts, DecentralAttempts       int
	CentralEstablished, DecentralEstablished int
	DecentralRounds                          int
}

// String renders the result.
func (r AblationAllocResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: centralized vs decentralized circuit allocation (%d requests, scarce buses)\n", r.Requests)
	fmt.Fprintf(&b, "  centralized:   %d established, %d commit attempts\n", r.CentralEstablished, r.CentralAttempts)
	fmt.Fprintf(&b, "  decentralized: %d established, %d commit attempts over %d rounds\n",
		r.DecentralEstablished, r.DecentralAttempts, r.DecentralRounds)
	fmt.Fprintf(&b, "  conflict overhead: %.2fx attempts\n",
		float64(r.DecentralAttempts)/float64(max(r.CentralAttempts, 1)))
	return b.String()
}

// AblationAllocation runs the allocation ablation on a scarce-bus
// wafer: 2 buses per lane, so requests that share a lane collide in
// the decentralized allocator's round-start proposals.
func AblationAllocation(seed uint64, requests int) (AblationAllocResult, error) {
	mkRack := func() (*wafer.Rack, error) {
		cfg := wafer.DefaultConfig()
		cfg.BusesPerLane = 2
		return wafer.NewRack(cfg, 1)
	}
	// The two regimes are independent (each builds its own rack,
	// allocator, and seed-derived streams, and value-copies the request
	// list), so they run as two engine trials.
	outs, err := engine.Map(2, func(i int) (route.BatchOutcome, error) {
		reqs := make([]route.Request, 0, requests)
		for j := 0; j < requests; j++ {
			reqs = append(reqs, route.Request{A: j % 8, B: 24 + (j+1)%8, Width: 1})
		}
		rack, err := mkRack()
		if err != nil {
			return route.BatchOutcome{}, err
		}
		a := route.NewAllocator(rack, rng.New(seed))
		if i == 0 {
			return a.EstablishBatch(reqs, 0), nil
		}
		dec := route.NewDecentralized(a, rng.New(seed).Split("order"))
		return dec.EstablishBatch(reqs, 0), nil
	})
	if err != nil {
		return AblationAllocResult{}, err
	}
	outC, outD := outs[0], outs[1]

	return AblationAllocResult{
		Requests:             requests,
		CentralAttempts:      outC.Attempts,
		DecentralAttempts:    outD.Attempts,
		CentralEstablished:   len(outC.Circuits),
		DecentralEstablished: len(outD.Circuits),
		DecentralRounds:      outD.Rounds,
	}, nil
}

// AblationFiberResult compares fiber-row packing against shortest-row
// spreading (§5, "Minimizing fiber requirement for fault tolerance").
type AblationFiberResult struct {
	Circuits                     int
	SpareRowsPacked, SpareSpread int
	// SurvivedPacked / SurvivedSpread: circuits re-established after
	// failing one in-use trunk row under each policy.
	SurvivedPacked, SurvivedSpread int
}

// String renders the result.
func (r AblationFiberResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: fiber packing vs spreading (%d cross-wafer circuits)\n", r.Circuits)
	fmt.Fprintf(&b, "  fully spare trunk rows: packed=%d spread=%d\n", r.SpareRowsPacked, r.SpareSpread)
	fmt.Fprintf(&b, "  circuits surviving a trunk-row cut (after repair): packed=%d spread=%d\n",
		r.SurvivedPacked, r.SurvivedSpread)
	return b.String()
}

// AblationFiber runs the fiber policy ablation: establish cross-wafer
// circuits under both policies, cut the busiest trunk row, and
// re-establish the affected circuits.
func AblationFiber(seed uint64) (AblationFiberResult, error) {
	load := []route.Request{
		{A: 0, B: 32, Width: 1},
		{A: 8, B: 40, Width: 1},
		{A: 16, B: 48, Width: 1},
		{A: 1, B: 33, Width: 1},
	}
	run := func(pack bool) (spare, survived int, err error) {
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
		if err != nil {
			return 0, 0, err
		}
		a := route.NewAllocator(rack, rng.New(seed))
		a.PackFibers = pack
		out := a.EstablishBatch(load, 0)
		if len(out.Failed) > 0 {
			return 0, 0, fmt.Errorf("experiments: %d establish failures", len(out.Failed))
		}
		spare = rack.SpareFullRows(0)
		// Cut the row carrying the first circuit.
		row := out.Circuits[0].Fibers[0].Row
		affected, err := a.ApplyFault(chaos.Fault{Class: chaos.FiberCut, Trunk: 0, Row: row})
		if err != nil {
			return 0, 0, err
		}
		for _, c := range affected {
			if _, err := a.Establish(route.Request{A: c.A, B: c.B, Width: c.Width}, 0); err == nil {
				survived++
			}
		}
		survived += len(out.Circuits) - len(affected) // untouched circuits survive trivially
		return spare, survived, nil
	}
	var res AblationFiberResult
	res.Circuits = len(load)
	var err error
	if res.SpareRowsPacked, res.SurvivedPacked, err = run(true); err != nil {
		return res, err
	}
	if res.SpareSpread, res.SurvivedSpread, err = run(false); err != nil {
		return res, err
	}
	return res, nil
}

// AblationSimultaneousResult compares the paper's §4.1 alternatives
// for recovering idle-dimension bandwidth: LIGHTPATH's redirected
// single bucket versus the electrical simultaneous buffer-split
// bucket.
type AblationSimultaneousResult struct {
	Buffer unit.Bytes
	// RedirectedBeta is the optical single bucket's beta;
	// SimultaneousBeta the electrical buffer-split variant's.
	RedirectedBeta, SimultaneousBeta unit.Seconds
	// RedirectedTotal/SimultaneousTotal include alpha and r.
	RedirectedTotal, SimultaneousTotal unit.Seconds
}

// String renders the result.
func (r AblationSimultaneousResult) String() string {
	return fmt.Sprintf(
		"Ablation: redirected single bucket (optical) vs simultaneous buffer-split bucket (electrical), full 4x4x4 cube, N=%v\n"+
			"  beta:  redirected=%v simultaneous=%v (paper: equal)\n"+
			"  total: redirected=%v simultaneous=%v\n",
		r.Buffer, r.RedirectedBeta, r.SimultaneousBeta, r.RedirectedTotal, r.SimultaneousTotal)
}

// AblationSimultaneous runs the §4.1 equivalence on a full cube.
func AblationSimultaneous(n int) (AblationSimultaneousResult, error) {
	t := torus.New(torus.TPUv4RackShape)
	s := &torus.Slice{Name: "cube", Origin: torus.Coord{0, 0, 0}, Shape: torus.TPUv4RackShape}
	p := cost.DefaultParams()

	single, err := collective.BucketAllReduce("redirect", t, s, []int{0, 1, 2}, n, 4, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		return AblationSimultaneousResult{}, err
	}
	sim, err := collective.SimultaneousBucketAllReduce("simultaneous", t, s, n, 4, collective.BucketOptions{})
	if err != nil {
		return AblationSimultaneousResult{}, err
	}
	oc, err := p.OpticalPerPhase(single)
	if err != nil {
		return AblationSimultaneousResult{}, err
	}
	ec, err := p.Electrical(sim)
	if err != nil {
		return AblationSimultaneousResult{}, err
	}
	return AblationSimultaneousResult{
		Buffer:            unit.Bytes(n) * 4,
		RedirectedBeta:    oc.Beta,
		SimultaneousBeta:  ec.Beta,
		RedirectedTotal:   oc.Total(),
		SimultaneousTotal: ec.Total(),
	}, nil
}
