package lightpath_test

import (
	"testing"

	"lightpath"
)

// These tests exercise the public facade exactly as a downstream user
// would; the behavioral depth lives in the internal packages' suites.

func TestFacadeQuickstart(t *testing.T) {
	fabric, err := lightpath.New(lightpath.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fabric.Torus().Size() != 64 {
		t.Fatalf("default fabric = %d chips", fabric.Torus().Size())
	}
	c, err := fabric.Circuits().Establish(lightpath.CircuitRequest{A: 0, B: 63, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Link.Feasible {
		t.Fatalf("circuit infeasible: %v", c.Link)
	}
	fabric.Circuits().Release(c)
}

func TestFacadeCustomShape(t *testing.T) {
	fabric, err := lightpath.New(lightpath.Options{
		RackShape: lightpath.Shape{4, 4, 2},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fabric.Torus().Size() != 32 {
		t.Fatalf("custom fabric = %d chips", fabric.Torus().Size())
	}
	if fabric.Hardware().NumWafers() != 1 {
		t.Fatalf("wafers = %d, want 1 for 32 chips", fabric.Hardware().NumWafers())
	}
}

func TestFacadeAllocationAndPlan(t *testing.T) {
	tor := lightpath.NewTorus(lightpath.Shape{4, 4, 4})
	slices := []*lightpath.Slice{
		{Name: "mine", Origin: lightpath.Coord{0, 0, 0}, Shape: lightpath.Shape{4, 4, 1}},
	}
	a, err := lightpath.NewAllocation(tor, slices)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := lightpath.New(lightpath.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fabric.PlanAllReduce(a, 0, 16*lightpath.MB)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Speedup() <= 1 {
		t.Fatalf("speedup = %v", plan.Speedup())
	}
}

func TestFacadeFig5bAndUtilization(t *testing.T) {
	_, a, err := lightpath.Fig5bAllocation()
	if err != nil {
		t.Fatal(err)
	}
	rep := lightpath.UtilizationReport(a)
	if len(rep) != 4 {
		t.Fatalf("report rows = %d", len(rep))
	}
}

func TestFacadeBlastRadius(t *testing.T) {
	if stats := lightpath.BlastRadius(); stats.Ratio != 16 {
		t.Fatalf("ratio = %v", stats.Ratio)
	}
}

func TestFacadeMoE(t *testing.T) {
	fabric, err := lightpath.New(lightpath.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lightpath.DefaultMoEConfig()
	cfg.Batches = 4
	res, err := fabric.RunMoE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 4 || res.Makespan <= 0 {
		t.Fatalf("moe = %+v", res)
	}
}

// TestEndToEndStory drives a full scenario through the public API
// only: lease tenants on a custom rack, plan their collectives,
// run a dynamic workload, and check the fabric dashboard.
func TestEndToEndStory(t *testing.T) {
	fabric, err := lightpath.New(lightpath.Options{
		RackShape: lightpath.Shape{4, 4, 2},
		Seed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	tor := fabric.Torus()
	slices := []*lightpath.Slice{
		{Name: "tenant-a", Origin: lightpath.Coord{0, 0, 0}, Shape: lightpath.Shape{4, 4, 1}},
		{Name: "tenant-b", Origin: lightpath.Coord{0, 0, 1}, Shape: lightpath.Shape{4, 2, 1}},
	}
	a, err := lightpath.NewAllocation(tor, slices)
	if err != nil {
		t.Fatal(err)
	}
	for si := range slices {
		plan, err := fabric.PlanAllReduce(a, si, 8*lightpath.MB)
		if err != nil {
			t.Fatalf("%s: %v", slices[si].Name, err)
		}
		if plan.Speedup() <= 1 {
			t.Fatalf("%s: speedup %v", slices[si].Name, plan.Speedup())
		}
	}
	moe := lightpath.DefaultMoEConfig()
	moe.Chips = 16
	moe.Batches = 4
	if _, err := fabric.RunMoE(moe); err != nil {
		t.Fatal(err)
	}
}
