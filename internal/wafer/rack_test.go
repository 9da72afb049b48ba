package wafer

import (
	"fmt"
	"testing"

	"lightpath/internal/snapshot"
)

func TestNewRackValidation(t *testing.T) {
	if _, err := NewRack(DefaultConfig(), 0); err == nil {
		t.Fatal("zero wafers accepted")
	}
	bad := DefaultConfig()
	bad.Rows = 0
	if _, err := NewRack(bad, 2); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestRackHostsTPURack(t *testing.T) {
	// A TPUv4 rack of 64 chips needs two 32-tile wafers.
	r, err := NewRack(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChips() != 64 {
		t.Fatalf("chips = %d, want 64", r.NumChips())
	}
	if r.NumWafers() != 2 {
		t.Fatalf("wafers = %d", r.NumWafers())
	}
}

func TestPlaceChipAtRoundTrip(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 3)
	for chip := 0; chip < r.NumChips(); chip++ {
		w, row, col := r.Place(chip)
		if back := r.ChipAt(w, row, col); back != chip {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", chip, w, row, col, back)
		}
	}
	// Chip 32 is the first tile of wafer 1.
	w, row, col := r.Place(32)
	if w != 1 || row != 0 || col != 0 {
		t.Fatalf("chip 32 at (%d,%d,%d)", w, row, col)
	}
}

func TestPlacePanics(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 1)
	for name, fn := range map[string]func(){
		"chip":  func() { r.Place(32) },
		"wafer": func() { r.Wafer(1) },
		"at":    func() { r.ChipAt(1, 0, 0) },
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

func TestTileOf(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 2)
	tile := r.TileOf(33) // wafer 1, row 0, col 1
	if tile.Row != 0 || tile.Col != 1 {
		t.Fatalf("tile at (%d,%d)", tile.Row, tile.Col)
	}
	if tile != r.Wafer(1).Tile(0, 1) {
		t.Fatal("TileOf returned wrong tile instance")
	}
}

func TestFiberAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FibersPerEdge = 2
	r, _ := NewRack(cfg, 3)
	a, err := r.AllocFiber(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.AllocFiber(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("same fiber allocated twice")
	}
	if _, err := r.AllocFiber(0, 1); err == nil {
		t.Fatal("third fiber on a 2-fiber row accepted")
	}
	// Other rows and trunks still free.
	if _, err := r.AllocFiber(0, 2); err != nil {
		t.Fatalf("other row: %v", err)
	}
	if _, err := r.AllocFiber(1, 1); err != nil {
		t.Fatalf("other trunk: %v", err)
	}
	if r.FibersInUse() != 4 {
		t.Fatalf("fibers in use = %d, want 4", r.FibersInUse())
	}
	r.FreeFiber(a)
	if r.FibersInUse() != 3 {
		t.Fatalf("after free = %d, want 3", r.FibersInUse())
	}
}

func TestFiberAllocationErrors(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 2)
	if _, err := r.AllocFiber(1, 0); err == nil {
		t.Error("out-of-range trunk accepted")
	}
	if _, err := r.AllocFiber(0, 4); err == nil {
		t.Error("out-of-range row accepted")
	}
}

// TestFiberRowCut: a cut is range-checked like an allocation, survives
// a checkpoint round trip next to the fibers in use, and takes its row
// out of the spare count, as a used row is.
func TestFiberRowCut(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 2)
	for _, bad := range [][2]int{{1, 0}, {-1, 0}, {0, 4}, {0, -1}} {
		if err := r.CutFiberRow(bad[0], bad[1]); err == nil {
			t.Errorf("cut of trunk %d row %d accepted", bad[0], bad[1])
		}
		if err := r.RepairFiberRow(bad[0], bad[1]); err == nil {
			t.Errorf("repair of trunk %d row %d accepted", bad[0], bad[1])
		}
	}
	if r.SpareFullRows(0) != 4 {
		t.Fatalf("fresh rack spares %d rows, want 4", r.SpareFullRows(0))
	}
	if err := r.CutFiberRow(0, 1); err != nil {
		t.Fatal(err)
	}
	ref, err := r.AllocFiber(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SpareFullRows(0); got != 2 {
		t.Fatalf("spare rows = %d with one row cut and one used, want 2", got)
	}

	var e snapshot.Encoder
	r.EncodeState(&e)
	fresh, _ := NewRack(DefaultConfig(), 2)
	if err := fresh.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !fresh.FiberRowCut(0, 1) || fresh.FiberRowCut(0, 2) {
		t.Fatal("cut row not restored")
	}
	if !fresh.FiberAllocated(ref) || fresh.FibersInRow(0, 2) != 1 || fresh.FibersInUse() != 1 {
		t.Fatalf("occupied fiber %v not restored", ref)
	}

	if err := fresh.RepairFiberRow(0, 1); err != nil || fresh.FiberRowCut(0, 1) {
		t.Fatalf("repaired row still cut (err %v)", err)
	}
	if err := fresh.RepairFiberRow(0, 1); err != nil {
		t.Fatalf("repair of an uncut row: %v", err)
	}
	if got := fresh.SpareFullRows(0); got != 3 {
		t.Fatalf("spare rows = %d after the repair, want 3", got)
	}
}

func TestFreeFiberPanicsOnDoubleFree(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 2)
	ref, err := r.AllocFiber(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.FreeFiber(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	r.FreeFiber(ref)
}

func TestFiberRefString(t *testing.T) {
	ref := FiberRef{Trunk: 1, Row: 2, Fiber: 3}
	if s := ref.String(); s != "trunk 1 row 2 fiber 3" {
		t.Fatalf("string = %q", s)
	}
}

func TestSingleWaferRackHasNoTrunks(t *testing.T) {
	r, _ := NewRack(DefaultConfig(), 1)
	if _, err := r.AllocFiber(0, 0); err == nil {
		t.Fatal("fiber on a trunkless rack accepted")
	}
	if r.FibersInUse() != 0 {
		t.Fatal("phantom fibers")
	}
}

func TestTopologies(t *testing.T) {
	cfg := DefaultConfig()
	chain, err := NewRack(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Topology() != Chain || chain.NumTrunks() != 3 {
		t.Fatalf("chain: topo %v trunks %d", chain.Topology(), chain.NumTrunks())
	}
	ring, err := NewRackTopology(cfg, 4, RingTopology)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Topology() != RingTopology || ring.NumTrunks() != 4 {
		t.Fatalf("ring: topo %v trunks %d", ring.Topology(), ring.NumTrunks())
	}
	// The closing trunk allocates fibers like any other.
	if _, err := ring.AllocFiber(3, 0); err != nil {
		t.Fatalf("closing trunk: %v", err)
	}
	if _, err := NewRackTopology(cfg, 2, Topology(9)); err == nil {
		t.Fatal("unknown topology accepted")
	}
	// A single-wafer ring has no trunks.
	solo, err := NewRackTopology(cfg, 1, RingTopology)
	if err != nil {
		t.Fatal(err)
	}
	if solo.NumTrunks() != 0 {
		t.Fatalf("solo ring trunks = %d", solo.NumTrunks())
	}
	if Chain.String() != "chain" || RingTopology.String() != "ring" {
		t.Fatal("topology names wrong")
	}
}

// ChipAt is the inverse of Place.
func (r *Rack) ChipAt(waferIdx, row, col int) int {
	if waferIdx < 0 || waferIdx >= len(r.wafers) {
		panic(fmt.Sprintf("wafer: wafer %d out of range", waferIdx))
	}
	return waferIdx*r.cfg.Tiles() + row*r.cfg.Cols + col
}
