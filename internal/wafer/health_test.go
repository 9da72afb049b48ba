package wafer

import (
	"testing"

	"lightpath/internal/snapshot"
)

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
	for range 3 {
		tile.FailLaser()
	}
	if got := tile.FreeLasers(); got != free-3 {
		t.Fatalf("free lasers = %d, want %d", got, free-3)
	}
	for range free {
		tile.FailLaser()
	}
	if got := tile.lasersFailed; got != free {
		t.Fatalf("failed lasers = %d, want saturation at %d", got, free)
	}
	for range free + 1 {
		tile.RepairLaser()
	}
	if got := tile.lasersFailed; got != 0 {
		t.Fatalf("failed lasers after repairing every one = %d, want 0", got)
	}
}

func TestFailedLasersCanOvercommitReservations(t *testing.T) {
	r := healthRack(t)
	tile := r.TileOf(0)
	if err := tile.Reserve(tile.FreeLasers()); err != nil {
		t.Fatal(err)
	}
	tile.FailLaser()
	if tile.FreeLasers() >= 0 {
		t.Fatal("over-commit not visible as negative free lasers")
	}
}

func TestFailSwitchRefusesProgramOnly(t *testing.T) {
	r := healthRack(t)
	tile := r.TileOf(0)
	if err := tile.Switches[1].Program(2); err != nil {
		t.Fatal(err)
	}
	if err := tile.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	if tile.SwitchHealthy(1) || !tile.Switches[1].stuck {
		t.Fatal("stuck switch reported healthy")
	}
	if err := tile.Switches[1].Program(0); err == nil {
		t.Fatal("stuck switch accepted a program")
	}
	// The frozen state survives: the established path keeps working.
	if tile.Switches[1].Port() != 2 {
		t.Fatalf("stuck switch forgot its port: %d", tile.Switches[1].Port())
	}
	if err := tile.FailSwitch(SwitchesPerTile); err == nil {
		t.Fatal("out-of-range switch index accepted")
	}

	// Every port and stuck flag survives a checkpoint round trip, and
	// the restored stuck switch still refuses a program.
	for chip, port := range []int{1, 2, 0, 2, 1} {
		t2 := r.TileOf(chip * 13)
		if err := t2.Switches[chip%SwitchesPerTile].Program(port); err != nil {
			t.Fatal(err)
		}
	}
	var e snapshot.Encoder
	r.EncodeState(&e)
	back := healthRack(t)
	if err := back.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	for chip := 0; chip < r.NumChips(); chip++ {
		for i := range SwitchesPerTile {
			got, want := &back.TileOf(chip).Switches[i], &r.TileOf(chip).Switches[i]
			if got.Port() != want.Port() || got.stuck != want.stuck {
				t.Fatalf("chip %d switch %d restored as port %d stuck %v, want port %d stuck %v",
					chip, i, got.Port(), got.stuck, want.Port(), want.stuck)
			}
		}
	}
	if err := back.TileOf(0).Switches[1].Program(0); err == nil {
		t.Fatal("restored stuck switch accepted a program")
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
	if got := recordCount(w); got != 1 {
		t.Fatalf("checkpoint writes %d degraded segments, want 1", got)
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
