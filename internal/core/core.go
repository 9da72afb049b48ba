// Package core is the paper's primary contribution assembled into one
// system: a server-scale photonic interconnect manager that plans
// collectives over tenant slices, decides how to redirect chip
// bandwidth by programming MZI switches (§4.1), establishes and tears
// down optical circuits (§3), repairs chip failures with
// non-overlapping circuits (§4.2), and serves dynamic traffic such as
// Mixture-of-Experts inference (§5).
//
// The public root package lightpath re-exports this API.
package core

import (
	"fmt"

	"lightpath/internal/collective"
	"lightpath/internal/cost"
	"lightpath/internal/invariant"
	"lightpath/internal/netsim"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Options configures a Fabric.
type Options struct {
	// RackShape is the logical torus of the accelerators (default:
	// the TPUv4 4x4x4 cube).
	RackShape torus.Shape
	// Seed drives every stochastic component (loss sampling, workload
	// generation); runs are reproducible given the seed.
	Seed uint64
	// Audit is how often the fabric's auditor re-checks the invariant
	// registry; the zero value, Off, attaches no hook. The runs that
	// change circuits return the auditor's verdict.
	Audit invariant.Mode
}

// Fabric is a multi-accelerator server (or rack of servers) whose
// chips are interconnected by LIGHTPATH wafers.
type Fabric struct {
	torus  *torus.Torus
	rack   *wafer.Rack
	alloc  *route.Allocator
	aud    *invariant.Auditor // watches alloc; the runs that change circuits return its verdict
	params cost.Params
	rand   *rng.Rand
	// exec and interp reuse the fluid-simulator and schedule-interpreter
	// scratch across the many executions a fabric performs (planning,
	// chaos trials); stepChip is the per-step payload tally of the
	// fault runs. A Fabric is single-goroutine, like its rand;
	// campaigns build one per trial.
	exec   netsim.Executor
	interp collective.Interp
	// stepChipBytes/stepChipTouched tally one step's per-chip payload,
	// indexed by chip; only touched entries are reset between steps.
	stepChipBytes   []unit.Bytes
	stepChipTouched []int
}

// New builds a fabric. Zero-valued options take the paper's defaults.
func New(opts Options) (*Fabric, error) {
	if opts.RackShape == nil {
		opts.RackShape = torus.TPUv4RackShape
	}
	if err := opts.RackShape.Validate(); err != nil {
		return nil, err
	}
	t := torus.New(opts.RackShape)
	cfg := wafer.DefaultConfig()
	wafers := (t.Size() + cfg.Tiles() - 1) / cfg.Tiles()
	hw, err := wafer.NewRack(cfg, wafers)
	if err != nil {
		return nil, err
	}
	r := rng.New(opts.Seed)
	alloc := route.NewAllocator(hw, r.Split("loss"))
	return &Fabric{
		torus:  t,
		rack:   hw,
		alloc:  alloc,
		aud:    invariant.Attach(alloc, opts.Audit),
		params: cost.DefaultParams(),
		rand:   r,
	}, nil
}

// Torus returns the logical accelerator torus.
func (f *Fabric) Torus() *torus.Torus { return f.torus }

// Hardware returns the LIGHTPATH wafer rack.
func (f *Fabric) Hardware() *wafer.Rack { return f.rack }

// Circuits returns the circuit allocator for direct circuit
// management.
func (f *Fabric) Circuits() *route.Allocator { return f.alloc }

// CollectivePlan compares one collective on the electrical
// direct-connect torus versus the photonic fabric.
type CollectivePlan struct {
	// Algorithm names the schedule chosen ("bucket" or "snake-ring").
	Algorithm string
	// ActiveDims is the number of ring dimensions the optical fabric
	// spreads the chip bandwidth across.
	ActiveDims int
	// ElectricalTime and OpticalTime are the simulated end-to-end
	// completion times (netsim).
	ElectricalTime, OpticalTime unit.Seconds
	// Schedule is the optical schedule (with reconfiguration marks).
	Schedule *collective.Schedule
}

// Clone deep-copies the plan, including its schedule, so independent
// fault trials can each splice their own copy.
func (p *CollectivePlan) Clone() *CollectivePlan {
	q := *p
	q.Schedule = p.Schedule.Clone()
	return &q
}

// Speedup returns ElectricalTime / OpticalTime.
func (p *CollectivePlan) Speedup() float64 {
	if p.OpticalTime == 0 {
		return 0
	}
	return float64(p.ElectricalTime / p.OpticalTime)
}

// PlanAllReduce plans an AllReduce of bufferBytes over slice si of
// the allocation, choosing the algorithm the way §4.1 describes:
//
//   - If every active dimension of the slice is congestion-free, run
//     the multidimensional bucket algorithm; optics redirects the
//     unused physical dimensions' bandwidth across the slice's rings.
//   - Otherwise (a Slice-1-like tenant), run the single snake ring;
//     optics redirects the chip's entire egress onto it.
func (f *Fabric) PlanAllReduce(a *torus.Allocation, si int, bufferBytes unit.Bytes) (*CollectivePlan, error) {
	if si < 0 || si >= len(a.Slices()) {
		return nil, fmt.Errorf("core: slice index %d out of range", si)
	}
	s := a.Slices()[si]
	const elemBytes = 4 // float32 model gradients
	n := int(bufferBytes / elemBytes)
	if n < 1 {
		n = 1
	}

	usable := a.UsableDims(si)
	active := collective.ActiveDims(s)

	var (
		elecSched, optSched *collective.Schedule
		err                 error
		algorithm           string
		activeDims          int
	)
	switch {
	case len(active) > 0 && len(usable) == len(active):
		// Every active dimension is congestion-free: the bucket
		// algorithm, with the idle physical dimensions' bandwidth
		// statically redirected across the slice's rings (Table 2).
		algorithm = "bucket"
		activeDims = len(active)
		elecSched, err = collective.BucketAllReduce(s.Name+"/elec", f.torus, s, usable, n, elemBytes, collective.BucketOptions{})
		if err != nil {
			return nil, err
		}
		optSched, err = collective.BucketAllReduce(s.Name+"/opt", f.torus, s, usable, n, elemBytes, collective.BucketOptions{MarkReconfig: true})
		if err != nil {
			return nil, err
		}
	case snakePossible(s):
		// A Slice-1-like tenant: the single Hamiltonian ring, with
		// the whole chip egress redirected onto it (Table 1).
		algorithm = "snake-ring"
		activeDims = 1
		elecSched, err = collective.SnakeRingAllReduce(s.Name+"/elec", f.torus, s, n, elemBytes, collective.BucketOptions{})
		if err != nil {
			return nil, err
		}
		optSched, err = collective.SnakeRingAllReduce(s.Name+"/opt", f.torus, s, n, elemBytes, collective.BucketOptions{MarkReconfig: true})
		if err != nil {
			return nil, err
		}
	default:
		// A Slice-4-like tenant (three active dimensions, some on
		// shared lines): run the bucket over all active dimensions —
		// their rings close inside the slice (extent 2 or full) —
		// with a conservative static bandwidth split. The paper does
		// not price this case; it only shows its utilization bars.
		algorithm = "bucket-shared"
		activeDims = len(active)
		elecSched, err = collective.BucketAllReduce(s.Name+"/elec", f.torus, s, active, n, elemBytes, collective.BucketOptions{})
		if err != nil {
			return nil, err
		}
		optSched, err = collective.BucketAllReduce(s.Name+"/opt", f.torus, s, active, n, elemBytes, collective.BucketOptions{MarkReconfig: true})
		if err != nil {
			return nil, err
		}
	}

	plan := &CollectivePlan{Algorithm: algorithm, ActiveDims: activeDims, Schedule: optSched}
	linkBW := f.params.ChipBandwidth / unit.BitRate(f.params.PhysDims)
	if plan.ElectricalTime, err = f.exec.Electrical(elecSched, f.torus, linkBW, nil, netsim.ExecOptions{Alpha: f.params.Alpha}); err != nil {
		return nil, err
	}
	circuitBW := f.params.ChipBandwidth / unit.BitRate(activeDims)
	if plan.OpticalTime, err = f.exec.Optical(optSched, circuitBW, netsim.ExecOptions{Alpha: f.params.Alpha, Reconfig: f.params.Reconfig}); err != nil {
		return nil, err
	}
	return plan, nil
}

// snakePossible reports whether the slice admits a Hamiltonian snake
// ring (at most two non-trivial dimensions, one of them even or the
// slice 1-D realizable).
func snakePossible(s *torus.Slice) bool {
	nontrivial := 0
	hasEven := false
	for _, e := range s.Shape {
		if e > 1 {
			nontrivial++
			if e%2 == 0 {
				hasEven = true
			}
		}
	}
	return nontrivial >= 1 && nontrivial <= 2 && hasEven
}

// SliceUtilization is one bar pair of Figure 5c.
type SliceUtilization struct {
	Slice      string
	Electrical float64
	Optical    float64
}

// UtilizationReport computes Figure 5c for an allocation: per slice,
// the fraction of chip bandwidth usable electrically (usable ring
// dimensions over physical dimensions) versus optically (full, via
// redirection).
func UtilizationReport(a *torus.Allocation) []SliceUtilization {
	var out []SliceUtilization
	for si, s := range a.Slices() {
		out = append(out, SliceUtilization{
			Slice:      s.Name,
			Electrical: a.Utilization(si),
			Optical:    a.OpticalUtilization(si),
		})
	}
	return out
}
