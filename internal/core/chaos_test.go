package core

import (
	"strings"
	"testing"

	"lightpath/internal/alloc"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// chaosSetup builds the Figure 6a rack, its fabric, and the victim
// slice's chip list.
func chaosSetup(t *testing.T) (*Fabric, *alloc.Fig6aScenario, []int) {
	t.Helper()
	sc, err := alloc.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Options{RackShape: sc.Torus.Shape(), Seed: 7, Audit: invariant.Paranoid})
	if err != nil {
		t.Fatal(err)
	}
	chips := sc.Alloc.Slices()[1].Chips(sc.Torus)
	return f, sc, chips
}

// TestRunAllReduceUnderFaultAcceptance is the PR's acceptance gate: a
// chip dies mid-collective, the fabric recovers over optical circuits,
// and (a) the AllReduce still computes the exact reference result,
// (b) the optical repair lands within twice the analytic bound of one
// MZI settling interval, and (c) the stall set is strictly smaller
// than electrical rack migration's.
func TestRunAllReduceUnderFaultAcceptance(t *testing.T) {
	f, sc, chips := chaosSetup(t)
	victim := chips[len(chips)/2]
	out, err := f.RunAllReduceUnderFault(sc.Alloc, 1, unit.MB, victim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatal("interrupted AllReduce produced a wrong result")
	}
	if out.Replacement == victim || out.Replacement < 0 {
		t.Fatalf("replacement = %d", out.Replacement)
	}
	if out.RepairTime > 2*out.RepairBound {
		t.Fatalf("repair %v exceeds 2x the %v bound", out.RepairTime, out.RepairBound)
	}
	if d := float64(out.MTTR - (out.DetectTime + out.RepairTime)); d > 1e-12 || d < -1e-12 {
		t.Fatalf("MTTR %v != detect %v + repair %v", out.MTTR, out.DetectTime, out.RepairTime)
	}
	if out.StallOptical >= out.StallElectrical {
		t.Fatalf("optical stall set %d not strictly smaller than electrical %d",
			out.StallOptical, out.StallElectrical)
	}
	if out.StallOptical != len(chips) {
		t.Fatalf("optical stall set %d, want the %d-chip slice", out.StallOptical, len(chips))
	}
	if out.StallElectrical != sc.Torus.Size() {
		t.Fatalf("electrical stall set %d, want the %d-chip rack", out.StallElectrical, sc.Torus.Size())
	}
	if out.WastedBytes <= 0 {
		t.Fatal("mid-step failure wasted no bytes")
	}
	if out.GoodputFraction <= 0 || out.GoodputFraction >= 1 {
		t.Fatalf("goodput = %g", out.GoodputFraction)
	}
	if out.TotalTime <= out.CleanTime {
		t.Fatalf("faulted run (%v) not slower than clean run (%v)", out.TotalTime, out.CleanTime)
	}
	if out.StepsReplayed < 1 || out.StepsReplayed > out.StepsTotal {
		t.Fatalf("replayed %d of %d steps", out.StepsReplayed, out.StepsTotal)
	}
	if !strings.Contains(out.String(), "CORRECT") {
		t.Fatalf("outcome string %q", out.String())
	}
}

// TestRunAllReduceUnderFaultEveryStep kills the same victim at each
// schedule step in turn: recovery must be correct no matter how much
// of the collective already ran.
func TestRunAllReduceUnderFaultEveryStep(t *testing.T) {
	f, sc, chips := chaosSetup(t)
	plan, err := f.PlanAllReduce(sc.Alloc, 1, unit.MB)
	if err != nil {
		t.Fatal(err)
	}
	steps := plan.Schedule.NumSteps()
	for step := 0; step < steps; step++ {
		fresh, err := New(Options{RackShape: sc.Torus.Shape(), Seed: 7, Audit: invariant.Paranoid})
		if err != nil {
			t.Fatal(err)
		}
		out, err := fresh.RunAllReduceUnderFault(sc.Alloc, 1, unit.MB, chips[0], step)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !out.Correct {
			t.Fatalf("step %d: wrong result after recovery", step)
		}
		if out.StepsReplayed != steps-step {
			t.Fatalf("step %d: replayed %d, want %d", step, out.StepsReplayed, steps-step)
		}
	}
}

// TestRunAllReduceUnderFaultRejectsBadInputs covers the argument
// validation: foreign victims and out-of-range steps.
func TestRunAllReduceUnderFaultRejectsBadInputs(t *testing.T) {
	f, sc, chips := chaosSetup(t)
	if _, err := f.RunAllReduceUnderFault(sc.Alloc, 1, unit.MB, 1<<20, 0); err == nil {
		t.Fatal("victim outside the collective accepted")
	}
	if _, err := f.RunAllReduceUnderFault(sc.Alloc, 1, unit.MB, chips[0], -1); err == nil {
		t.Fatal("negative fail step accepted")
	}
	if _, err := f.RunAllReduceUnderFault(sc.Alloc, 1, unit.MB, chips[0], 1<<20); err == nil {
		t.Fatal("out-of-range fail step accepted")
	}
}

// TestRunAllReduceUnderFaultDeterministic: the same fabric seed,
// victim and step reproduce the outcome bit for bit.
func TestRunAllReduceUnderFaultDeterministic(t *testing.T) {
	run := func() *ChaosOutcome {
		f, sc, chips := chaosSetup(t)
		out, err := f.RunAllReduceUnderFault(sc.Alloc, 1, unit.MB, chips[3], 2)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("outcomes diverged:\n%v\n%v", a, b)
	}
}

// TestRunPlannedAllReduceUnderFaultCatchesBrokenPlan: the check runs on
// the schedule's atoms, and must still see a wrong sum. A plan with one
// transfer dropped completes its recovery but reports Correct false.
func TestRunPlannedAllReduceUnderFaultCatchesBrokenPlan(t *testing.T) {
	f, sc, chips := chaosSetup(t)
	plan, err := f.PlanAllReduce(sc.Alloc, 1, unit.MB)
	if err != nil {
		t.Fatal(err)
	}
	broken := plan.Clone()
	step := &broken.Schedule.Steps[1]
	step.Transfers = step.Transfers[1:]
	out, err := f.RunPlannedAllReduceUnderFault(sc.Alloc, broken, chips[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct {
		t.Fatal("AllReduce with a dropped transfer reported correct")
	}
}
