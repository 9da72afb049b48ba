package sched

import (
	"math"
	"testing"
	"testing/quick"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func params() Params {
	return Params{
		ChipBandwidth: unit.GBps(300),
		Reconfig:      3.7 * unit.Microsecond,
		PortLimit:     16,
	}
}

func chips(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestConfigBasics(t *testing.T) {
	c := NewConfig([2]int{1, 2}, [2]int{2, 3}, [2]int{3, 1})
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	if !c.Has(2, 1) || !c.Has(1, 2) {
		t.Fatal("undirected lookup failed")
	}
	if c.Has(1, 4) {
		t.Fatal("phantom circuit")
	}
	if c.Degree(1) != 2 || c.Degree(4) != 0 {
		t.Fatalf("degree(1) = %d", c.Degree(1))
	}
	if c.MaxDegree() != 2 {
		t.Fatalf("max degree = %d", c.MaxDegree())
	}
	// Self-pairs and duplicates are ignored.
	d := NewConfig([2]int{5, 5}, [2]int{1, 2}, [2]int{2, 1})
	if d.Size() != 1 {
		t.Fatalf("dedup size = %d", d.Size())
	}
}

func TestConfigKeyEqual(t *testing.T) {
	a := NewConfig([2]int{1, 2}, [2]int{3, 4})
	b := NewConfig([2]int{4, 3}, [2]int{2, 1})
	if a.Key() != b.Key() || !a.Equal(b) {
		t.Fatal("order-insensitive identity broken")
	}
	c := NewConfig([2]int{1, 2})
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("unequal configs compare equal")
	}
}

func TestHops(t *testing.T) {
	ring := RingConfig(chips(6))
	if h := ring.hops(0, 1); h != 1 {
		t.Fatalf("adjacent hops = %d", h)
	}
	if h := ring.hops(0, 3); h != 3 {
		t.Fatalf("opposite hops = %d", h)
	}
	if h := ring.hops(2, 2); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
	disconnected := NewConfig([2]int{0, 1})
	if h := disconnected.hops(0, 5); h != -1 {
		t.Fatalf("disconnected hops = %d", h)
	}
}

func TestServeTime(t *testing.T) {
	p := params()
	d := Demand{Pairs: []Pair{{Src: 0, Dst: 1, Bytes: unit.GB}}}
	direct := DemandConfig(d)
	tDirect, ok := p.ServeTime(d, direct)
	if !ok {
		t.Fatal("direct unserveable")
	}
	// One circuit at full B: 1 GB / 300 GB/s.
	want := p.ChipBandwidth.TimeFor(unit.GB)
	if math.Abs(float64(tDirect-want)) > 1e-12 {
		t.Fatalf("direct = %v, want %v", tDirect, want)
	}
	// Over a 6-ring, 0->3 is 3 hops at B/2 (ring degree 2): 6x direct.
	ring := RingConfig(chips(6))
	d2 := Demand{Pairs: []Pair{{Src: 0, Dst: 3, Bytes: unit.GB}}}
	tRing, ok := p.ServeTime(d2, ring)
	if !ok {
		t.Fatal("ring unserveable")
	}
	if ratio := float64(tRing / tDirect); math.Abs(ratio-6) > 1e-9 {
		t.Fatalf("ring stretch = %v, want 6", ratio)
	}
	// Unreachable pair.
	if _, ok := p.ServeTime(d2, NewConfig([2]int{0, 1})); ok {
		t.Fatal("unreachable pair served")
	}
	// Zero-byte pairs are free.
	if tt, ok := p.ServeTime(Demand{Pairs: []Pair{{Src: 0, Dst: 3}}}, ring); !ok || tt != 0 {
		t.Fatalf("zero-byte serve = %v/%v", tt, ok)
	}
}

func TestRunEagerVsStatic(t *testing.T) {
	p := params()
	cs := chips(8)
	r := rng.New(7)
	phases := Generate(WorkloadChurning, cs, 20, 16*unit.MiB, r)

	eager, err := Run(p, EagerPolicy{}, phases)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(p, NewStaticPolicy(cs), phases)
	if err != nil {
		t.Fatal(err)
	}
	// Eager reconfigures (almost) every phase; static once.
	if eager.Reconfigs < 15 {
		t.Fatalf("eager reconfigs = %d", eager.Reconfigs)
	}
	if static.Reconfigs != 1 {
		t.Fatalf("static reconfigs = %d", static.Reconfigs)
	}
	// At 16 MiB per pair, relay stretch costs far more than r: eager
	// wins on total.
	if eager.Total >= static.Total {
		t.Fatalf("eager %v should beat static %v at large transfers", eager.Total, static.Total)
	}
	if eager.Unserveable != 0 || static.Unserveable != 0 {
		t.Fatal("unexpected unserveable phases")
	}
}

func TestStaticWinsTinyTransfers(t *testing.T) {
	p := params()
	cs := chips(8)
	phases := Generate(WorkloadChurning, cs, 40, 2*unit.KiB, rng.New(8))
	eager, err := Run(p, EagerPolicy{}, phases)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(p, NewStaticPolicy(cs), phases)
	if err != nil {
		t.Fatal(err)
	}
	// At 2 KB per pair, r dominates: never reconfiguring wins.
	if static.Total >= eager.Total {
		t.Fatalf("static %v should beat eager %v at tiny transfers", static.Total, eager.Total)
	}
}

func TestHysteresisInterpolates(t *testing.T) {
	p := params()
	cs := chips(8)
	// Periodic workload with mid-size transfers: hysteresis should
	// land between the extremes (or match the better one).
	phases := Generate(WorkloadPeriodic, cs, 30, 256*unit.KiB, rng.New(9))
	eager, _ := Run(p, EagerPolicy{}, phases)
	static, _ := Run(p, NewStaticPolicy(cs), phases)
	hyst, err := Run(p, HysteresisPolicy{P: p, Threshold: 1.0}, phases)
	if err != nil {
		t.Fatal(err)
	}
	worst := eager.Total
	if static.Total > worst {
		worst = static.Total
	}
	if hyst.Total > worst {
		t.Fatalf("hysteresis %v worse than both extremes (%v, %v)", hyst.Total, eager.Total, static.Total)
	}
}

func TestOfflineOptimalLowerBounds(t *testing.T) {
	p := params()
	cs := chips(8)
	for _, kind := range []WorkloadKind{WorkloadPeriodic, WorkloadShifting, WorkloadChurning} {
		phases := Generate(kind, cs, 15, 512*unit.KiB, rng.New(11))
		opt, err := OfflineOptimal(p, phases, cs)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, policy := range []Policy{EagerPolicy{}, NewStaticPolicy(cs), HysteresisPolicy{P: p, Threshold: 1.0}} {
			out, err := Run(p, policy, phases)
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, policy.Name(), err)
			}
			if out.Total < opt.Total-unit.Seconds(1e-12) {
				t.Fatalf("%v: %s total %v beat offline optimal %v", kind, policy.Name(), out.Total, opt.Total)
			}
		}
	}
}

func TestRunPortLimit(t *testing.T) {
	p := params()
	p.PortLimit = 1
	// A demand needing degree 2 at chip 0.
	phases := []Demand{{Pairs: []Pair{
		{Src: 0, Dst: 1, Bytes: unit.MB},
		{Src: 0, Dst: 2, Bytes: unit.MB},
	}}}
	if _, err := Run(p, EagerPolicy{}, phases); err == nil {
		t.Fatal("port-limit violation accepted")
	}
}

func TestRunEmergencyReconfig(t *testing.T) {
	p := params()
	// A static policy whose ring covers chips 0..3 cannot serve a
	// demand touching chip 9: the runner must fall back.
	policy := NewStaticPolicy(chips(4))
	phases := []Demand{{Pairs: []Pair{{Src: 0, Dst: 9, Bytes: unit.MB}}}}
	out, err := Run(p, policy, phases)
	if err != nil {
		t.Fatal(err)
	}
	if out.Unserveable != 1 {
		t.Fatalf("unserveable = %d, want 1", out.Unserveable)
	}
}

func TestGenerateShapes(t *testing.T) {
	cs := chips(8)
	for _, kind := range []WorkloadKind{WorkloadPeriodic, WorkloadShifting, WorkloadChurning} {
		phases := Generate(kind, cs, 12, unit.MB, rng.New(1))
		if len(phases) != 12 {
			t.Fatalf("%v: %d phases", kind, len(phases))
		}
		for _, d := range phases {
			for _, pr := range d.Pairs {
				if pr.Src == pr.Dst {
					t.Fatalf("%v: self pair", kind)
				}
			}
		}
	}
	if WorkloadKind(9).String() != "WorkloadKind(9)" {
		t.Fatal("unknown kind name")
	}
}

func TestGeneratePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"too few chips": func() { Generate(WorkloadPeriodic, []int{1}, 3, unit.MB, rng.New(1)) },
		"unknown kind":  func() { Generate(WorkloadKind(9), chips(4), 3, unit.MB, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: for any workload, the offline optimal never exceeds the
// eager policy (eager's schedule is in the DP's candidate family).
func TestOfflineOptimalDominatesEagerProperty(t *testing.T) {
	p := params()
	f := func(seed uint64, kindRaw, phasesRaw uint8) bool {
		kind := WorkloadKind(kindRaw % 3)
		nPhases := int(phasesRaw%10) + 2
		cs := chips(6)
		phases := Generate(kind, cs, nPhases, 128*unit.KiB, rng.New(seed))
		opt, err := OfflineOptimal(p, phases, cs)
		if err != nil {
			return false
		}
		eager, err := Run(p, EagerPolicy{}, phases)
		if err != nil {
			return false
		}
		return opt.Total <= eager.Total+unit.Seconds(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCachingPolicyConvergesOnPeriodic(t *testing.T) {
	p := params()
	cs := chips(8)
	phases := Generate(WorkloadPeriodic, cs, 30, 64*unit.KiB, rng.New(15))
	caching, err := Run(p, NewCachingPolicy(p), phases)
	if err != nil {
		t.Fatal(err)
	}
	// The three repeating matchings fit the port budget together: the
	// cache converges within one cycle and never reconfigures again.
	if caching.Reconfigs > 3 {
		t.Fatalf("caching reconfigs = %d, want <= 3 (one per distinct pattern)", caching.Reconfigs)
	}
	// And every phase after convergence is served at direct speed:
	// total beats eager (which pays r every phase).
	eager, _ := Run(p, EagerPolicy{}, phases)
	if caching.Total >= eager.Total {
		t.Fatalf("caching %v should beat eager %v on periodic traffic", caching.Total, eager.Total)
	}
	static, _ := Run(p, NewStaticPolicy(cs), phases)
	if caching.Total >= static.Total {
		t.Fatalf("caching %v should beat static %v at 64KB", caching.Total, static.Total)
	}
}

func TestCachingPolicyEvictsUnderPortPressure(t *testing.T) {
	p := params()
	p.PortLimit = 2
	cs := chips(6)
	phases := Generate(WorkloadChurning, cs, 25, 64*unit.KiB, rng.New(16))
	out, err := Run(p, NewCachingPolicy(p), phases)
	if err != nil {
		t.Fatal(err)
	}
	// Under churn with tight ports the cache cannot converge, but the
	// run must stay valid (no port violations -> Run returned nil).
	if out.Reconfigs == 0 {
		t.Fatal("churning traffic with 2 ports should reconfigure")
	}
}

func TestCachingPolicyFallsBackWhenDemandSaturates(t *testing.T) {
	p := params()
	p.PortLimit = 2
	pol := NewCachingPolicy(p)
	// Install an unrelated circuit, then demand exactly PortLimit
	// circuits at chip 0: the cache must yield the bare demand.
	d := Demand{Pairs: []Pair{
		{Src: 0, Dst: 1, Bytes: unit.MB},
		{Src: 0, Dst: 2, Bytes: unit.MB},
	}}
	cur := NewConfig([2]int{0, 5})
	next := pol.Next(cur, d)
	if next.MaxDegree() > 2 {
		t.Fatalf("caching exceeded port limit: %d", next.MaxDegree())
	}
	if !next.Has(0, 1) || !next.Has(0, 2) {
		t.Fatal("caching dropped needed circuits")
	}
}

// Property: no online policy beats the offline optimum now that the
// candidate family includes running unions (covering the caching
// policy's reachable configurations).
func TestOfflineOptimalDominatesCachingProperty(t *testing.T) {
	p := params()
	f := func(seed uint64, kindRaw uint8) bool {
		kind := WorkloadKind(kindRaw % 3)
		cs := chips(6)
		phases := Generate(kind, cs, 10, 256*unit.KiB, rng.New(seed))
		opt, err := OfflineOptimal(p, phases, cs)
		if err != nil {
			return false
		}
		caching, err := Run(p, NewCachingPolicy(p), phases)
		if err != nil {
			return false
		}
		return opt.Total <= caching.Total+unit.Seconds(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestHedgeTracksBestExpert: across workloads, the hedge panel's total
// stays within a modest factor of its best fixed-threshold expert.
func TestHedgeTracksBestExpert(t *testing.T) {
	p := params()
	cs := chips(8)
	thresholds := []float64{0.5, 1, 2, 4}
	for _, kind := range []WorkloadKind{WorkloadPeriodic, WorkloadShifting, WorkloadChurning} {
		for _, bytes := range []unit.Bytes{4 * unit.KiB, 256 * unit.KiB, 16 * unit.MiB} {
			phases := Generate(kind, cs, 30, bytes, rng.New(19))
			best := unit.Seconds(math.Inf(1))
			for _, th := range thresholds {
				out, err := Run(p, HysteresisPolicy{P: p, Threshold: th}, phases)
				if err != nil {
					t.Fatal(err)
				}
				if out.Total < best {
					best = out.Total
				}
			}
			hedge, err := Run(p, NewHedgePolicy(p, thresholds...), phases)
			if err != nil {
				t.Fatal(err)
			}
			if float64(hedge.Total) > 1.3*float64(best) {
				t.Fatalf("%v/%v: hedge %v > 1.3x best expert %v", kind, bytes, hedge.Total, best)
			}
		}
	}
}

func TestHedgeLeaderIntrospection(t *testing.T) {
	p := params()
	h := NewHedgePolicy(p)
	if h.Leader() != 0.5 {
		t.Fatalf("initial leader = %v, want first expert", h.Leader())
	}
	cs := chips(6)
	phases := Generate(WorkloadChurning, cs, 10, 4*unit.KiB, rng.New(20))
	if _, err := Run(p, h, phases); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, th := range []float64{0.5, 1, 2, 4} {
		if h.Leader() == th {
			found = true
		}
	}
	if !found {
		t.Fatalf("leader %v not in the expert set", h.Leader())
	}
}

// Leader returns the currently best-weighted expert's threshold, for
// introspection in experiments.
func (h *HedgePolicy) Leader() float64 {
	best := 0
	for i := range h.weights {
		if h.weights[i] > h.weights[best] {
			best = i
		}
	}
	return h.experts[best].Threshold
}

// Size returns the number of circuits.
func (c Config) Size() int { return len(c.edges) }
