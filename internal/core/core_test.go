package core

import (
	"math"
	"testing"

	"lightpath/internal/alloc"
	"lightpath/internal/invariant"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// routeRequest builds a circuit request (helper keeps test sites terse).
func routeRequest(a, b, width int) route.Request {
	return route.Request{A: a, B: b, Width: width}
}

func newFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(Options{Seed: 1, Audit: invariant.Paranoid})
	if err != nil {
		t.Fatal(err)
	}
	// Tests that drive f.Circuits() directly get no run's verdict, so
	// the auditor's is checked when the test ends.
	t.Cleanup(func() {
		if err := f.aud.Err(); err != nil {
			t.Error(err)
		}
	})
	return f
}

func TestNewDefaults(t *testing.T) {
	f := newFabric(t)
	if f.Torus().Size() != 64 {
		t.Fatalf("torus = %d chips", f.Torus().Size())
	}
	if f.Hardware().NumWafers() != 2 {
		t.Fatalf("wafers = %d, want 2 for 64 chips", f.Hardware().NumWafers())
	}
	if f.params.PhysDims != 3 {
		t.Fatal("default cost params missing")
	}
	if f.Circuits() == nil {
		t.Fatal("no allocator")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{RackShape: torus.Shape{0}}); err == nil {
		t.Fatal("bad shape accepted")
	}
}

// TestPlanAllReduceSlice1 exercises the Table 1 path through the
// public planner: a Slice-1-like tenant in the Figure 5b rack gets
// the snake ring and a ~3x optical speedup at large buffers.
func TestPlanAllReduceSlice1(t *testing.T) {
	f := newFabric(t)
	_, a, err := alloc.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.PlanAllReduce(a, 0, 64*unit.MB)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != "snake-ring" || plan.ActiveDims != 1 {
		t.Fatalf("algorithm = %s/%d", plan.Algorithm, plan.ActiveDims)
	}
	if s := plan.Speedup(); s < 2.7 || s > 3.05 {
		t.Fatalf("speedup = %.2f, want ~3x", s)
	}
	reconfigs := 0
	for _, st := range plan.Schedule.Steps {
		if st.Reconfig {
			reconfigs++
		}
	}
	if reconfigs == 0 {
		t.Fatal("optical schedule has no reconfiguration marks")
	}
}

// TestPlanAllReduceSlice3 exercises the Table 2 path: the bucket
// algorithm with a ~1.5x optical advantage.
func TestPlanAllReduceSlice3(t *testing.T) {
	f := newFabric(t)
	_, a, err := alloc.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.PlanAllReduce(a, 2, 64*unit.MB) // Slice-3
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != "bucket" || plan.ActiveDims != 2 {
		t.Fatalf("algorithm = %s/%d", plan.Algorithm, plan.ActiveDims)
	}
	if s := plan.Speedup(); s < 1.4 || s > 1.55 {
		t.Fatalf("speedup = %.2f, want ~1.5x", s)
	}
}

func TestPlanAllReduceValidation(t *testing.T) {
	f := newFabric(t)
	_, a, _ := alloc.Fig5b()
	if _, err := f.PlanAllReduce(a, 9, unit.MB); err == nil {
		t.Fatal("bad slice index accepted")
	}
}

// TestUtilizationReportFig5c is the Figure 5c series through the
// public API.
func TestUtilizationReportFig5c(t *testing.T) {
	_, a, err := alloc.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	rep := UtilizationReport(a)
	want := map[string]float64{
		"Slice-1": 1.0 / 3, "Slice-2": 1.0 / 3,
		"Slice-3": 2.0 / 3, "Slice-4": 2.0 / 3,
	}
	for _, r := range rep {
		if math.Abs(r.Electrical-want[r.Slice]) > 1e-12 {
			t.Errorf("%s electrical = %v, want %v", r.Slice, r.Electrical, want[r.Slice])
		}
		if r.Optical != 1 {
			t.Errorf("%s optical = %v, want 1", r.Slice, r.Optical)
		}
	}
}

func TestCompareRepairFig6a(t *testing.T) {
	f := newFabric(t)
	sc, err := alloc.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := f.CompareRepair([]*torus.Allocation{sc.Alloc}, 0, sc.FailedChip, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ElectricalPossible {
		t.Fatal("electrical repair should be impossible in Figure 6a")
	}
	if cmp.ElectricalPlan == nil || cmp.ElectricalPlan.Congestion == 0 {
		t.Fatal("diagnostic plan missing or claims no congestion")
	}
	if cmp.OpticalPlan == nil || !cmp.OpticalPlan.Disjoint() {
		t.Fatal("optical repair missing or overlapping")
	}
	if cmp.OpticalReadyIn != 3.7*unit.Microsecond {
		t.Fatalf("optical ready in %v, want 3.7us", cmp.OpticalReadyIn)
	}
}

func TestBlastRadiusHeadline(t *testing.T) {
	stats := BlastRadius()
	if stats.Ratio != 16 {
		t.Fatalf("blast radius shrinkage = %v, want 16x", stats.Ratio)
	}
}

func TestRunMoEDefaults(t *testing.T) {
	f := newFabric(t)
	res, err := f.RunMoE(DefaultMoEConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 64 {
		t.Fatalf("batches = %d", res.Batches)
	}
	if res.NewCircuits == 0 {
		t.Fatal("no circuits established")
	}
	if res.ReusedCircuits == 0 {
		t.Fatal("cache never hit across 64 batches")
	}
	if res.Makespan <= 0 || res.TransferTime <= 0 {
		t.Fatalf("times: %+v", res)
	}
	// With 4 MB per expert at 224 Gbps, transfers dominate: the
	// reconfiguration overhead must be small (§5's trade-off leans
	// toward transfer for inference-sized payloads).
	if frac := res.OverheadFraction(); frac > 0.05 {
		t.Fatalf("reconfig overhead = %.3f, want < 5%%", frac)
	}
}

func TestRunMoEReproducible(t *testing.T) {
	f1, _ := New(Options{Seed: 7, Audit: invariant.Paranoid})
	f2, _ := New(Options{Seed: 7, Audit: invariant.Paranoid})
	r1, err := f1.RunMoE(DefaultMoEConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f2.RunMoE(DefaultMoEConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.NewCircuits != r2.NewCircuits || r1.Makespan != r2.Makespan {
		t.Fatalf("nondeterministic MoE: %+v vs %+v", r1, r2)
	}
}

func TestRunMoESkewCreatesHotExpertPressure(t *testing.T) {
	f1, _ := New(Options{Seed: 9, Audit: invariant.Paranoid})
	uniform := DefaultMoEConfig()
	uniform.Batches = 16
	ru, err := f1.RunMoE(uniform)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := New(Options{Seed: 9, Audit: invariant.Paranoid})
	skewed := uniform
	skewed.Skew = 0.9
	rs, err := f2.RunMoE(skewed)
	if err != nil {
		t.Fatal(err)
	}
	// A hot expert concentrates fan-in on one tile, whose 16 lasers
	// cannot terminate ~30 simultaneous circuits: the runtime must
	// serialize into waves, evicting and re-establishing circuits —
	// the decentralized-allocation pressure §5 warns about.
	if rs.Evictions <= ru.Evictions {
		t.Fatalf("skewed evictions %d <= uniform %d", rs.Evictions, ru.Evictions)
	}
	if rs.Makespan <= ru.Makespan {
		t.Fatalf("skewed makespan %v <= uniform %v; hot expert should serialize", rs.Makespan, ru.Makespan)
	}
}

func TestRunMoEValidation(t *testing.T) {
	f := newFabric(t)
	bad := []MoEConfig{
		{Chips: 1, Experts: 1, TopK: 1, CircuitWidth: 1},
		{Chips: 1 << 20, Experts: 1, TopK: 1, CircuitWidth: 1},
		{Chips: 8, Experts: 0, TopK: 1, CircuitWidth: 1},
		{Chips: 8, Experts: 4, TopK: 5, CircuitWidth: 1},
		{Chips: 8, Experts: 4, TopK: 2, CircuitWidth: 0},
	}
	for i, cfg := range bad {
		if _, err := f.RunMoE(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestRunMoEEviction forces endpoint-port scarcity and checks the
// cache evicts rather than failing.
func TestRunMoEEviction(t *testing.T) {
	f := newFabric(t)
	cfg := MoEConfig{
		Chips:          16,
		Experts:        16,
		TopK:           8,
		Batches:        24,
		BytesPerExpert: unit.MB,
		CircuitWidth:   2, // 16 lasers / width 2 = 8 endpoints per tile
	}
	res, err := f.RunMoE(cfg)
	if err != nil {
		t.Fatalf("MoE under scarcity failed: %v", err)
	}
	if res.Evictions == 0 {
		t.Fatal("expected evictions under port scarcity")
	}
}
