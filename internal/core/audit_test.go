package core

import (
	"errors"
	"testing"

	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// TestRunsSurfaceViolations corrupts the hardware behind the allocator
// and demands that both runs which change circuits return the
// auditor's verdict, so a caller learns of the corruption from the
// run itself.
func TestRunsSurfaceViolations(t *testing.T) {
	sabotage := func(t *testing.T, f *Fabric) {
		t.Helper()
		if err := f.Hardware().TileOf(20).Reserve(1); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("moe", func(t *testing.T) {
		f, err := New(Options{Seed: 1, Audit: invariant.Paranoid})
		if err != nil {
			t.Fatal(err)
		}
		sabotage(t, f)
		cfg := MoEConfig{Chips: 8, Experts: 4, TopK: 2, Batches: 2, BytesPerExpert: unit.MB, CircuitWidth: 1}
		if _, err := f.RunMoE(cfg); !errors.Is(err, invariant.ErrViolated) {
			t.Fatalf("RunMoE on corrupted hardware: err = %v, want ErrViolated", err)
		}
	})
	t.Run("fault", func(t *testing.T) {
		f, sc, chips := chaosSetup(t)
		plan, err := f.PlanAllReduce(sc.Alloc, 1, unit.MB)
		if err != nil {
			t.Fatal(err)
		}
		sabotage(t, f)
		if _, err := f.RunPlannedAllReduceUnderFault(sc.Alloc, plan, chips[0], 3); !errors.Is(err, invariant.ErrViolated) {
			t.Fatalf("RunPlannedAllReduceUnderFault on corrupted hardware: err = %v, want ErrViolated", err)
		}
	})
}
