// The fuzz target lives in an external test package so it can attach
// the invariant auditor (package invariant imports route; an
// in-package test would be an import cycle). It exercises only the
// allocator's public API.
package route_test

import (
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// checkRecoveryInvariants asserts what must hold after any fault and
// any recovery: established circuits are pairwise disjoint, cross no
// severed segment, use no failed fiber row, and terminate only at
// healthy chips. The attached Paranoid auditor re-derives the same
// properties (and more) from the hardware occupancy after every
// mutation; aud carries its verdict.
func checkRecoveryInvariants(t *testing.T, a *route.Allocator, aud *invariant.Auditor) {
	t.Helper()
	if err := aud.Err(); err != nil {
		vs := aud.Violations()
		t.Fatalf("auditor found %d violation(s) after %d audits; first: %s", aud.Count(), aud.Audits(), vs[0])
	}
	circuits := a.Circuits()
	for i, c := range circuits {
		for j := i + 1; j < len(circuits); j++ {
			if c.SharesResources(circuits[j]) {
				t.Fatalf("circuits %d and %d overlap", c.ID, circuits[j].ID)
			}
		}
		if c.Width < 1 {
			t.Fatalf("circuit %d has width %d", c.ID, c.Width)
		}
		for _, ep := range [2]int{c.A, c.B} {
			if !a.Rack().TileOf(ep).ChipHealthy() {
				t.Fatalf("circuit %d terminates at dead chip %d", c.ID, ep)
			}
		}
		for _, s := range c.Segments {
			if a.Rack().Wafer(s.Wafer).SpanSevered(s.Ref.Orient, s.Ref.Lane, s.Ref.Span) {
				t.Fatalf("circuit %d crosses a severed segment %v", c.ID, s)
			}
		}
		for _, f := range c.Fibers {
			if a.RowFailed(f.Trunk, f.Row) {
				t.Fatalf("circuit %d uses cut fiber row (%d,%d)", c.ID, f.Trunk, f.Row)
			}
		}
	}
}

// FuzzFaultRecovery drives a random circuit population through a
// random fault schedule, re-establishing broken circuits after every
// fault, and asserts the recovery invariants throughout — both the
// spot checks below and the full invariant registry, which the
// Paranoid auditor replays after every Establish/Release/ApplyFault.
// The fuzz inputs seed both the circuit mix and the fault engine, so
// every failing input replays deterministically; the committed corpus
// under testdata/fuzz pins the seeds that run in normal test mode.
func FuzzFaultRecovery(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(2024), uint8(20))
	f.Add(uint64(0), uint8(1))
	f.Add(uint64(42), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, nFaults uint8) {
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		a := route.NewAllocator(rack, nil)
		aud := invariant.Attach(a, invariant.Paranoid)
		r := rng.New(seed)

		// A spread of circuits; establishment failures (exhausted
		// tiles, duplicate endpoints) are fine — the fuzz property is
		// about what survives, not what fits.
		chips := rack.NumChips()
		for i := 0; i < 12; i++ {
			req := route.Request{A: r.Intn(chips), B: r.Intn(chips), Width: 1 + r.Intn(4)}
			if req.A == req.B {
				continue
			}
			_, _ = a.Establish(req, 0)
		}
		checkRecoveryInvariants(t, a, aud)

		cfg := rack.Config()
		var rates chaos.Rates
		for c := 0; c < chaos.NumClasses; c++ {
			rates.MTBF[c] = 10 * unit.Millisecond
		}
		eng, err := chaos.NewEngine(seed, chaos.Components{
			Chips:           chips,
			SwitchesPerTile: wafer.SwitchesPerTile,
			Wafers:          rack.NumWafers(),
			Rows:            cfg.Rows,
			Cols:            cfg.Cols,
			Trunks:          rack.NumWafers(),
		}, rates)
		if err != nil {
			t.Fatal(err)
		}
		faults := eng.Schedule(1.0)
		if len(faults) > int(nFaults) {
			faults = faults[:nFaults]
		}
		for _, fault := range faults {
			broken, err := a.ApplyFault(fault)
			if err != nil {
				t.Fatalf("%v: %v", fault, err)
			}
			checkRecoveryInvariants(t, a, aud)
			// Recovery: re-path every broken circuit that still has
			// live endpoints; failures (no path left, dead endpoint)
			// are legitimate outcomes, but must not corrupt state.
			for _, c := range broken {
				_, _, _ = a.EstablishDegraded(route.Request{A: c.A, B: c.B, Width: c.Width}, 0)
				checkRecoveryInvariants(t, a, aud)
			}
		}
	})
}
