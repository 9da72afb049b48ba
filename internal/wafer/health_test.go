package wafer

import "testing"

func healthRack(t *testing.T) *Rack {
	t.Helper()
	r, err := NewRack(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFailChip(t *testing.T) {
	r := healthRack(t)
	tile := r.TileOf(0)
	if !tile.ChipHealthy() {
		t.Fatal("fresh chip unhealthy")
	}
	tile.FailChip()
	if tile.ChipHealthy() {
		t.Fatal("failed chip reported healthy")
	}
}

func TestFailLasersSaturatesAndChargesFreePool(t *testing.T) {
	r := healthRack(t)
	tile := r.TileOf(0)
	free := tile.FreeLasers()
	tile.FailLasers(3)
	if got := tile.FreeLasers(); got != free-3 {
		t.Fatalf("free lasers = %d, want %d", got, free-3)
	}
	tile.FailLasers(1 << 20)
	if got := tile.FailedLasers(); got != free {
		t.Fatalf("failed lasers = %d, want saturation at %d", got, free)
	}
	tile.FailLasers(-5) // no-op
	if got := tile.FailedLasers(); got != free {
		t.Fatalf("negative failure changed count to %d", got)
	}
}

func TestFailedLasersCanOvercommitReservations(t *testing.T) {
	r := healthRack(t)
	tile := r.TileOf(0)
	if err := tile.Reserve(tile.FreeLasers()); err != nil {
		t.Fatal(err)
	}
	tile.FailLasers(1)
	if tile.FreeLasers() >= 0 {
		t.Fatal("over-commit not visible as negative free lasers")
	}
}

func TestFailSwitchRefusesProgramOnly(t *testing.T) {
	r := healthRack(t)
	tile := r.TileOf(0)
	if err := tile.Switches[1].Program(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tile.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	if tile.SwitchHealthy(1) || !tile.Switches[1].Stuck() {
		t.Fatal("stuck switch reported healthy")
	}
	if err := tile.Switches[1].Program(0, 0); err == nil {
		t.Fatal("stuck switch accepted a program")
	}
	// The frozen state survives: the established path keeps working.
	if tile.Switches[1].Port() != 2 {
		t.Fatalf("stuck switch forgot its port: %d", tile.Switches[1].Port())
	}
	if err := tile.FailSwitch(SwitchesPerTile); err == nil {
		t.Fatal("out-of-range switch index accepted")
	}
}

func TestDegradeSegmentAccumulatesAndSevers(t *testing.T) {
	r := healthRack(t)
	w := r.Wafer(0)
	if err := w.DegradeSegment(Horizontal, 1, 2, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := w.DegradeSegment(Horizontal, 1, 2, 2.0); err != nil {
		t.Fatal(err)
	}
	span := Interval{Lo: 0, Hi: 4}
	if got := w.SpanExtraLossDB(Horizontal, 1, span); got != 3.5 {
		t.Fatalf("span extra loss = %g, want 3.5", got)
	}
	if w.SpanSevered(Horizontal, 1, span) {
		t.Fatal("3.5 dB should not sever")
	}
	if err := w.DegradeSegment(Horizontal, 1, 2, SeveredSegmentDB); err != nil {
		t.Fatal(err)
	}
	if !w.SpanSevered(Horizontal, 1, span) {
		t.Fatal("past-threshold segment not severed")
	}
	// A span not crossing the defect is unaffected.
	if w.SpanSevered(Horizontal, 1, Interval{Lo: 3, Hi: 5}) {
		t.Fatal("severance leaked to a disjoint span")
	}
	if got := w.SpanExtraLossDB(Vertical, 1, span); got != 0 {
		t.Fatalf("orthogonal lane degraded by %g", got)
	}
	if w.DegradedSegments() != 1 {
		t.Fatalf("degraded segments = %d, want 1", w.DegradedSegments())
	}
}

func TestDegradeSegmentRejectsBadInputs(t *testing.T) {
	r := healthRack(t)
	w := r.Wafer(0)
	if err := w.DegradeSegment(Horizontal, -1, 0, 1); err == nil {
		t.Fatal("negative lane accepted")
	}
	if err := w.DegradeSegment(Horizontal, 0, 1<<20, 1); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if err := w.DegradeSegment(Horizontal, 0, 0, -1); err == nil {
		t.Fatal("negative loss accepted")
	}
}
