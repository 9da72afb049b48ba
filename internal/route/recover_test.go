package route

import (
	"errors"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/wafer"
)

func recoverAllocator(t *testing.T) *Allocator {
	t.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewAllocator(rack, nil)
}

func TestApplyFaultChipFailure(t *testing.T) {
	a := recoverAllocator(t)
	c, err := a.Establish(Request{A: 0, B: 5, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := a.Establish(Request{A: 2, B: 7, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := a.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || broken[0].ID != c.ID {
		t.Fatalf("broken = %v, want exactly the victim's circuit", broken)
	}
	if len(a.Circuits()) != 1 || a.Circuits()[0].ID != other.ID {
		t.Fatal("bystander circuit was torn down")
	}
	if _, err := a.Establish(Request{A: 0, B: 9, Width: 1}, 0); !errors.Is(err, ErrEndpointFailed) {
		t.Fatalf("dead endpoint accepted: %v", err)
	}
	// Re-establishing the broken circuit must also refuse: the endpoint
	// itself is gone, and no narrowing helps.
	b := broken[0]
	if _, _, err := a.EstablishDegraded(Request{A: b.A, B: b.B, Width: b.Width}, 0); !errors.Is(err, ErrEndpointFailed) {
		t.Fatalf("reestablish to a dead chip: %v", err)
	}
}

func TestApplyFaultLaserDeathShedsNewestOnOvercommit(t *testing.T) {
	a := recoverAllocator(t)
	free := a.Rack().TileOf(0).FreeLasers()
	first, err := a.Establish(Request{A: 0, B: 5, Width: free - 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Establish(Request{A: 0, B: 9, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One laser dies; the tile is now over-committed by one and the
	// newest circuit is shed.
	shed, err := a.ApplyFault(chaos.Fault{Class: chaos.LaserDeath, Chip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(shed) != 1 || shed[0].ID != second.ID {
		t.Fatalf("shed = %v, want the newest circuit", shed)
	}
	if a.Rack().TileOf(0).FreeLasers() < 0 {
		t.Fatal("tile still over-committed after shedding")
	}
	if len(a.Circuits()) != 1 || a.Circuits()[0].ID != first.ID {
		t.Fatal("older circuit did not survive")
	}
	// A second laser death with slack left sheds nothing.
	if more, err := a.ApplyFault(chaos.Fault{Class: chaos.LaserDeath, Chip: 5}); err != nil || len(more) != 0 {
		t.Fatalf("laser death with slack shed %v (err %v)", more, err)
	}
}

func TestApplyFaultMZIStuckFreezesState(t *testing.T) {
	a := recoverAllocator(t)
	c, err := a.Establish(Request{A: 0, B: 5, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := a.ApplyFault(chaos.Fault{Class: chaos.MZIStuck, Chip: 0, Switch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatal("stuck switch tore down a working circuit")
	}
	if len(a.Circuits()) != 1 || a.Circuits()[0].ID != c.ID {
		t.Fatal("established circuit lost")
	}
	// New circuits needing that endpoint switch are refused (every
	// path from chip 0 programs its endpoint switch 0).
	if _, err := a.Establish(Request{A: 0, B: 9, Width: 1}, 0); err == nil {
		t.Fatal("established a circuit through a stuck endpoint switch")
	}
	// Other chips are unaffected.
	if _, err := a.Establish(Request{A: 2, B: 7, Width: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.MZIStuck, Chip: 0, Switch: 99}); err == nil {
		t.Fatal("out-of-range switch accepted")
	}
}

func TestApplyFaultWaveguideLossBudgetAndSever(t *testing.T) {
	a := recoverAllocator(t)
	c, err := a.Establish(Request{A: 0, B: 5, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := c.Segments[0]
	horizontal := seg.Ref.Orient == wafer.Horizontal
	// Mild degradation: within the stored margin, the circuit survives.
	broken, err := a.ApplyFault(chaos.Fault{
		Class: chaos.WaveguideLoss, Wafer: seg.Wafer, Horizontal: horizontal,
		Lane: seg.Ref.Lane, Pos: seg.Ref.Span.Lo, ExtraLossDB: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("0.5 dB broke the circuit (margin %v)", c.Link.MarginDB)
	}
	// Severing degradation: the circuit is torn down and the segment
	// pruned from future pathfinding.
	broken, err = a.ApplyFault(chaos.Fault{
		Class: chaos.WaveguideLoss, Wafer: seg.Wafer, Horizontal: horizontal,
		Lane: seg.Ref.Lane, Pos: seg.Ref.Span.Lo, ExtraLossDB: wafer.SeveredSegmentDB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || broken[0].ID != c.ID {
		t.Fatalf("severed segment broke %v, want the crossing circuit", broken)
	}
	// Re-establishment must avoid the severed position.
	re, degraded, err := a.EstablishDegraded(Request{A: c.A, B: c.B, Width: c.Width}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("full-width repath reported degraded")
	}
	for _, s := range re.Segments {
		if a.Rack().Wafer(s.Wafer).SpanSevered(s.Ref.Orient, s.Ref.Lane, s.Ref.Span) {
			t.Fatal("repathed circuit crosses the severed segment")
		}
	}
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.WaveguideLoss, Wafer: 99}); err == nil {
		t.Fatal("out-of-range wafer accepted")
	}
}

func TestApplyFaultFiberCut(t *testing.T) {
	a := recoverAllocator(t)
	tiles := a.Rack().Config().Tiles()
	// A cross-wafer circuit must use a trunk fiber.
	c, err := a.Establish(Request{A: 0, B: tiles, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fibers) == 0 {
		t.Fatal("cross-wafer circuit took no fiber")
	}
	f := c.Fibers[0]
	broken, err := a.ApplyFault(chaos.Fault{Class: chaos.FiberCut, Trunk: f.Trunk, Row: f.Row})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || broken[0].ID != c.ID {
		t.Fatalf("fiber cut broke %v, want the crossing circuit", broken)
	}
	if !a.RowFailed(f.Trunk, f.Row) {
		t.Fatal("cut row not marked failed")
	}
	// Re-establishment routes over a surviving row.
	re, _, err := a.EstablishDegraded(Request{A: c.A, B: c.B, Width: c.Width}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range re.Fibers {
		if g.Trunk == f.Trunk && g.Row == f.Row {
			t.Fatal("repathed circuit reuses the cut row")
		}
	}
}

func TestApplyFaultRejectsUnknownClassAndBadChip(t *testing.T) {
	a := recoverAllocator(t)
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.Class(99)}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: -1}); err == nil {
		t.Fatal("negative chip accepted")
	}
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 1 << 20}); err == nil {
		t.Fatal("out-of-range chip accepted")
	}
}

func TestEstablishDegradedHalvesWidth(t *testing.T) {
	a := recoverAllocator(t)
	free := a.Rack().TileOf(3).FreeLasers()
	// Leave only a quarter of the lasers at one endpoint: a full-width
	// request cannot fit, but halving twice can.
	if err := a.Rack().TileOf(3).Reserve(free - free/4); err != nil {
		t.Fatal(err)
	}
	c, degraded, err := a.EstablishDegraded(Request{A: 3, B: 9, Width: free}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("narrowed circuit not reported degraded")
	}
	if c.Width >= free || c.Width < 1 {
		t.Fatalf("degraded width = %d from request %d", c.Width, free)
	}
}

func TestEstablishDegradedWidthOneFloor(t *testing.T) {
	// A wafer with a single laser per tile forces the full degradation
	// ladder: width 4 halves to 2, then to the floor of 1, which fits.
	cfg := wafer.DefaultConfig()
	cfg.LasersPerTile = 1
	rack, err := wafer.NewRack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, nil)
	c, degraded, err := a.EstablishDegraded(Request{A: 0, B: 5, Width: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded || c.Width != 1 {
		t.Fatalf("width = %d degraded = %v, want the width-1 floor", c.Width, degraded)
	}
	// Below the floor there is nothing: with chip 0's only laser taken,
	// even width 1 fails, and the failure reports no phantom degraded
	// circuit.
	c2, degraded, err := a.EstablishDegraded(Request{A: 0, B: 9, Width: 4}, 0)
	if err == nil || c2 != nil || degraded {
		t.Fatalf("exhausted endpoint produced (%v, %v, %v)", c2, degraded, err)
	}
	// A dead endpoint short-circuits the ladder entirely: narrowing
	// cannot resurrect a chip, so the sentinel survives unhalved.
	if _, err := a.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 9}); err != nil {
		t.Fatal(err)
	}
	_, degraded, err = a.EstablishDegraded(Request{A: 9, B: 12, Width: 4}, 0)
	if !errors.Is(err, ErrEndpointFailed) || degraded {
		t.Fatalf("dead endpoint: err = %v degraded = %v, want ErrEndpointFailed", err, degraded)
	}
}

func TestEstablishRejectsDegenerateRequests(t *testing.T) {
	a := recoverAllocator(t)
	if _, err := a.Establish(Request{A: 1, B: 1, Width: 1}, 0); err == nil {
		t.Fatal("self-circuit accepted")
	}
	if _, err := a.Establish(Request{A: 0, B: 1, Width: 0}, 0); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := a.Establish(Request{A: -1, B: 1, Width: 1}, 0); err == nil {
		t.Fatal("negative chip accepted")
	}
	if _, err := a.Establish(Request{A: 0, B: 1 << 20, Width: 1}, 0); err == nil {
		t.Fatal("out-of-range chip accepted")
	}
}
