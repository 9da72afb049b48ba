package invariant

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
	"lightpath/internal/wafer"
)

// auditFixture builds a two-wafer rack with a few established
// circuits and a detached auditor (no hook): the corruption tests
// drive Audit explicitly so each one observes exactly the state it
// sabotaged.
func auditFixture(t *testing.T) (*route.Allocator, *Auditor) {
	t.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	for _, req := range []route.Request{
		{A: 0, B: 5, Width: 2},
		{A: 1, B: 40, Width: 3}, // cross-wafer: exercises fibers
		{A: 9, B: 12, Width: 1},
	} {
		if _, err := a.Establish(req, 0); err != nil {
			t.Fatal(err)
		}
	}
	return a, Attach(a, Off)
}

// firstCircuit returns a deterministic established circuit.
func firstCircuit(t *testing.T, a *route.Allocator) *route.Circuit {
	t.Helper()
	cs := a.Circuits()
	if len(cs) == 0 {
		t.Fatal("fixture has no circuits")
	}
	min := cs[0]
	for _, c := range cs {
		if c.ID < min.ID {
			min = c
		}
	}
	return min
}

func TestAuditCleanStateFindsNothing(t *testing.T) {
	_, aud := auditFixture(t)
	if vs := aud.Audit("fixture"); len(vs) != 0 {
		t.Fatalf("clean state reported violations: %v", vs)
	}
	if aud.Count() != 0 || aud.Err() != nil {
		t.Fatalf("count %d err %v on clean state", aud.Count(), aud.Err())
	}
}

// corruptions sabotages the shared state one invariant at a time,
// entirely behind the allocator's back, and names the registered
// invariant that must catch it.
var corruptions = []struct {
	name      string
	invariant string
	sabotage  func(t *testing.T, a *route.Allocator)
}{
	{
		name:      "zeroed width",
		invariant: "circuit-disjointness",
		sabotage: func(t *testing.T, a *route.Allocator) {
			firstCircuit(t, a).Width = 0
		},
	},
	{
		name:      "dropped segment",
		invariant: "bus-conservation",
		sabotage: func(t *testing.T, a *route.Allocator) {
			c := firstCircuit(t, a)
			c.Segments = c.Segments[:len(c.Segments)-1]
		},
	},
	{
		name:      "dropped fiber",
		invariant: "fiber-conservation",
		sabotage: func(t *testing.T, a *route.Allocator) {
			for _, c := range a.Circuits() {
				if len(c.Fibers) > 0 {
					c.Fibers = c.Fibers[:len(c.Fibers)-1]
					return
				}
			}
			t.Fatal("fixture has no cross-wafer circuit")
		},
	},
	{
		name:      "phantom laser reservation",
		invariant: "endpoint-conservation",
		sabotage: func(t *testing.T, a *route.Allocator) {
			if err := a.Rack().TileOf(20).Reserve(1); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name:      "chip killed behind the allocator",
		invariant: "budget-health",
		sabotage: func(t *testing.T, a *route.Allocator) {
			a.Rack().TileOf(firstCircuit(t, a).A).FailChip()
		},
	},
	{
		name:      "switch reprogrammed behind the allocator",
		invariant: "switch-consistency",
		sabotage: func(t *testing.T, a *route.Allocator) {
			se := a.AppendCircuitSwitches(nil, firstCircuit(t, a))[0]
			if err := se.Tile.Switches[se.Switch].Program(se.Port + 1); err != nil {
				t.Fatal(err)
			}
		},
	},
}

// TestAuditCatchesEveryCorruption is the acceptance check for the
// auditor itself: each registered invariant must turn its own kind of
// sabotage into a non-empty, descriptive, correctly attributed
// Violation — and Err must wrap ErrViolated so errors.Is works at any
// distance from the corruption.
func TestAuditCatchesEveryCorruption(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			a, aud := auditFixture(t)
			tc.sabotage(t, a)
			vs := aud.Audit("sabotage")
			if len(vs) == 0 {
				t.Fatal("corruption went unnoticed")
			}
			found := false
			for _, v := range vs {
				if v.Invariant == tc.invariant {
					found = true
					if v.Detail == "" {
						t.Fatalf("%s violation has empty detail", v.Invariant)
					}
					if !strings.Contains(v.String(), "circuit") && !strings.Contains(v.String(), "chip") &&
						!strings.Contains(v.String(), "trunk") && !strings.Contains(v.String(), "tile") {
						t.Fatalf("violation does not name a component: %q", v.String())
					}
					if v.Op != "sabotage" {
						t.Fatalf("violation op = %q", v.Op)
					}
				}
			}
			if !found {
				t.Fatalf("no %s violation among %v", tc.invariant, vs)
			}
			err := aud.Err()
			if !errors.Is(err, ErrViolated) {
				t.Fatalf("Err() = %v, does not wrap ErrViolated", err)
			}
		})
	}
}

// TestAuditSurvivesCorruptIndices: a circuit naming a wafer, an
// endpoint chip or a turn tile off the rack is reported, never
// panicked on — a wafer off the rack is an unallocated span, an
// endpoint off the rack a budget-health failure — by the audit, by
// every registered Check, and by a Sampled auditor's delta audit when
// the circuit was added since its last audit.
func TestAuditSurvivesCorruptIndices(t *testing.T) {
	for _, tc := range []struct {
		name, invariant, detail string
		sabotage                func(c *route.Circuit, rack *wafer.Rack)
	}{
		{"wide wafer", "bus-conservation", "is not allocated in the lane occupancy", func(c *route.Circuit, rack *wafer.Rack) {
			c.Segments[len(c.Segments)-1].Wafer = 1 << 40
		}},
		{"negative wafer", "bus-conservation", "is not allocated in the lane occupancy", func(c *route.Circuit, rack *wafer.Rack) {
			c.Segments[0].Wafer = -1
		}},
		{"endpoint past the last chip", "budget-health", "off the rack", func(c *route.Circuit, rack *wafer.Rack) {
			c.A = rack.NumChips()
		}},
		{"negative endpoint", "budget-health", "off the rack", func(c *route.Circuit, rack *wafer.Rack) {
			c.B = -3
		}},
		{"turn tile off the grid", "bus-conservation", "is not allocated in the lane occupancy", func(c *route.Circuit, rack *wafer.Rack) {
			c.Segments[len(c.Segments)-1].Ref.Lane = 1 << 40
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, aud := auditFixture(t)
			var turning *route.Circuit
			for _, c := range a.Circuits() {
				if len(c.Segments) > 1 {
					turning = c
				}
			}
			if turning == nil {
				t.Fatal("fixture has no circuit with a turn")
			}
			tc.sabotage(turning, a.Rack())
			found := false
			for _, v := range aud.Audit("sabotage") {
				found = found || v.Invariant == tc.invariant && strings.Contains(v.Detail, tc.detail)
			}
			if !found {
				t.Fatalf("no %s violation containing %q among %v", tc.invariant, tc.detail, aud.Violations())
			}
			for _, inv := range Registry() {
				inv.Check(a)
			}

			// Delta mode: the same sabotage on a circuit added since a
			// Sampled auditor's last audit.
			a, _ = auditFixture(t)
			d := Attach(a, Sampled)
			if vs := d.sample("warm"); len(vs) != 0 || !d.ctx.idx.valid {
				t.Fatalf("warm-up pass: violations %v, index valid %v", vs, d.ctx.idx.valid)
			}
			added, err := a.Establish(route.Request{A: 2, B: 27, Width: 1}, 0)
			if err != nil || len(added.Segments) < 2 {
				t.Fatalf("establish a turning circuit: %v, %+v", err, added)
			}
			tc.sabotage(added, a.Rack())
			found = false
			for _, v := range d.sample("establish") {
				found = found || v.Invariant == tc.invariant && strings.Contains(v.Detail, tc.detail)
			}
			if !found {
				t.Fatalf("delta mode: no %s violation containing %q among %v", tc.invariant, tc.detail, d.Violations())
			}
		})
	}
}

// TestReporterOrdersTiesByEnd pins the one case the old comparator
// sort left unspecified: a circuit holding two segments on one bus
// that start together and end apart. The reporter orders them by end,
// so the violations do not depend on the order the segments are held
// in — here, circuit 2 overlaps circuit 1's reach twice before its
// longer segment takes the reach over.
func TestReporterOrdersTiesByEnd(t *testing.T) {
	seg := func(lo, hi int) route.Segment {
		return route.Segment{Ref: wafer.BusRef{Orient: wafer.Horizontal, Lane: 1, Bus: 3, Span: wafer.Interval{Lo: lo, Hi: hi}}}
	}
	want := []string{
		"circuits 1 and 2 share a bus segment or fiber",
		"circuits 1 and 2 share a bus segment or fiber",
	}
	for _, held := range [][]route.Segment{{seg(2, 9), seg(2, 3)}, {seg(2, 3), seg(2, 9)}} {
		ctx := checkCtx{circuits: []*route.Circuit{
			{ID: 1, Width: 1, Segments: []route.Segment{seg(0, 5)}},
			{ID: 2, Width: 1, Segments: held},
		}}
		if got := ctx.sweepSegments(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("segments held as %v: got %q, want %q", held, got, want)
		}
	}
}

// TestParanoidHookFiresOnEveryMutation attaches a Paranoid auditor and
// counts registry passes across a mutation mix, including the
// compound ones (ApplyFault, EstablishDegraded) that must audit once
// at the top level — never mid-mutation on inconsistent state.
func TestParanoidHookFiresOnEveryMutation(t *testing.T) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	aud := Attach(a, Paranoid)
	c, err := a.Establish(route.Request{A: 0, B: 5, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aud.Audits() != 1 {
		t.Fatalf("establish ran %d audits, want 1", aud.Audits())
	}
	a.Release(c)
	if aud.Audits() != 2 {
		t.Fatalf("release ran %d more audits, want 1", aud.Audits()-1)
	}
	// A double release is a no-op and must not count as a mutation.
	a.Release(c)
	if aud.Audits() != 2 {
		t.Fatal("no-op double release triggered an audit")
	}
	if aud.Count() != 0 {
		t.Fatalf("clean mutations produced %d violations", aud.Count())
	}
}

// TestSampledModeStrides checks the cheap mode audits every
// DefaultStride-th mutation instead of all of them.
func TestSampledModeStrides(t *testing.T) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, nil)
	aud := Attach(a, Sampled)
	for i := 0; i < 2*DefaultStride; i++ {
		c, err := a.Establish(route.Request{A: 0, B: 5, Width: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.Release(c)
	}
	if aud.Mutations() != 4*DefaultStride {
		t.Fatalf("observed %d mutations, want %d", aud.Mutations(), 4*DefaultStride)
	}
	if aud.Audits() != 4 {
		t.Fatalf("sampled mode ran %d audits over %d mutations, want 4", aud.Audits(), 4*DefaultStride)
	}
}

// TestRegistryAndModeStrings pins the documented surface: six named
// invariants and printable modes.
func TestRegistryAndModeStrings(t *testing.T) {
	if len(Registry()) != 6 {
		t.Fatalf("registry has %d invariants, want 6", len(Registry()))
	}
	seen := map[string]bool{}
	for _, inv := range Registry() {
		if inv.Name == "" {
			t.Fatalf("invariant %+v incompletely registered", inv)
		}
		if seen[inv.Name] {
			t.Fatalf("duplicate invariant name %q", inv.Name)
		}
		seen[inv.Name] = true
	}
	for m, want := range map[Mode]string{Off: "off", Sampled: "sampled", Paranoid: "paranoid", Mode(9): "Mode(9)"} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestSampledFallsBackToFullPass walks a Sampled auditor through each
// rule that makes its next sampled audit a full pass: a mutation other
// than an establish or a release, an audit that found violations,
// RestoreState, a table out of ID order and a key off the rack. Each
// case starts from a warm index and drives one audit point.
func TestSampledFallsBackToFullPass(t *testing.T) {
	// A chip no circuit uses, failed before the auditor attaches, so
	// the "chip repaired" case has real hardware to repair.
	deadChip := chaos.Fault{Class: chaos.ChipFailure, Chip: 7}
	for _, tc := range []struct {
		name string
		// before runs ahead of the audit point's mutations; delta says
		// whether the audit may still be a delta.
		before func(t *testing.T, a *route.Allocator, d *Auditor)
		delta  bool
	}{
		{"establishes and releases only", func(*testing.T, *route.Allocator, *Auditor) {}, true},
		{"fiber row failed", func(t *testing.T, a *route.Allocator, d *Auditor) {
			if _, err := a.ApplyFault(chaos.Fault{Class: chaos.FiberCut, Trunk: 0, Row: 3}); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"chip repaired", func(t *testing.T, a *route.Allocator, d *Auditor) {
			if err := a.Repair(deadChip); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"restored", func(t *testing.T, a *route.Allocator, d *Auditor) {
			var e snapshot.Encoder
			d.EncodeState(&e)
			if err := d.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"violation found", func(t *testing.T, a *route.Allocator, d *Auditor) {
			tile := a.Rack().TileOf(a.Circuits()[0].A)
			tile.FailChip()
			if len(d.Audit("sabotage")) == 0 {
				t.Fatal("sabotage went unnoticed")
			}
			tile.RepairChip()
		}, false},
		{"table out of ID order", func(t *testing.T, a *route.Allocator, d *Auditor) {
			cs := a.Circuits()
			cs[0].ID, cs[1].ID = cs[1].ID, cs[0].ID
		}, false},
		{"key off the rack", func(t *testing.T, a *route.Allocator, d *Auditor) {
			c, err := a.Establish(route.Request{A: 2, B: 27, Width: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.Segments[0].Ref.Bus = a.Rack().Config().BusesPerLane
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := auditFixture(t)
			if _, err := a.ApplyFault(deadChip); err != nil {
				t.Fatal(err)
			}
			d := AttachCounting(a, Sampled)
			for d.FullPasses() == 0 || !d.ctx.idx.valid {
				c, err := a.Establish(route.Request{A: 3, B: 30, Width: 1}, 0)
				if err != nil {
					t.Fatal(err)
				}
				a.Release(c)
			}
			tc.before(t, a, d)
			full := d.FullPasses()
			for d.mutations%DefaultStride != DefaultStride-1 {
				d.MutatedReport("release")
			}
			d.MutatedReport("establish")
			if delta := d.FullPasses() == full; delta != tc.delta {
				t.Fatalf("audit ran as a delta: %v, want %v", delta, tc.delta)
			}
		})
	}
}

// TestDeltaCatchesSharingAlone plants the one corruption only the
// delta index can see: a circuit added since the last audit claims a
// span or fiber another live circuit holds, in place of an identical
// one of its own, so every per-circuit check passes and every tally
// balances. The delta audit must hand over to the full pass, which
// reports the pair under circuit-disjointness.
func TestDeltaCatchesSharingAlone(t *testing.T) {
	for _, tc := range []struct {
		name  string
		req   route.Request
		steal func(t *testing.T, added, held *route.Circuit)
	}{
		{"span", route.Request{A: 0, B: 5, Width: 1}, func(t *testing.T, added, held *route.Circuit) {
			s, h := &added.Segments[0], held.Segments[0]
			if s.Wafer != h.Wafer || s.Ref.Orient != h.Ref.Orient || s.Ref.Lane != h.Ref.Lane || s.Ref.Span != h.Ref.Span || s.Ref.Bus == h.Ref.Bus {
				t.Fatalf("paths differ: %v and %v", s, h)
			}
			s.Ref.Bus = h.Ref.Bus
		}},
		{"fiber", route.Request{A: 2, B: 41, Width: 1}, func(t *testing.T, added, held *route.Circuit) {
			f, h := &added.Fibers[0], held.Fibers[0]
			if f.Trunk != h.Trunk || f.Row != h.Row || f.Fiber == h.Fiber {
				t.Fatalf("fibers not on one row: %v and %v", f, h)
			}
			f.Fiber = h.Fiber
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := auditFixture(t)
			d := Attach(a, Sampled)
			if vs := d.sample("warm"); len(vs) != 0 || !d.ctx.idx.valid {
				t.Fatalf("warm-up pass: violations %v, index valid %v", vs, d.ctx.idx.valid)
			}
			held := firstCircuit(t, a)
			if tc.name == "fiber" {
				held = a.Circuits()[1]
			}
			added, err := a.Establish(tc.req, 0)
			if err != nil {
				t.Fatal(err)
			}
			tc.steal(t, added, held)
			want := []Violation{{Invariant: "circuit-disjointness", Op: "establish",
				Detail: fmt.Sprintf("circuits %d and %d share a bus segment or fiber", held.ID, added.ID)}}
			if got := d.sample("establish"); !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v, want %v", got, want)
			}
		})
	}
}
