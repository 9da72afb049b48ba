package ctrl

import (
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// serverPointers is every pointer a server's construction hands out
// into its value arrays: each wafer, each tile both by chip and by
// position, and each chip's breaker.
type serverPointers struct {
	wafers   []*wafer.Wafer
	chips    []*wafer.Tile
	tiles    []*wafer.Tile
	breakers []*Breaker
}

func pointersOf(s *Server) serverPointers {
	var p serverPointers
	rack := s.Allocator().Rack()
	cfg := rack.Config()
	for i := 0; i < rack.NumWafers(); i++ {
		w := rack.Wafer(i)
		p.wafers = append(p.wafers, w)
		for r := 0; r < cfg.Rows; r++ {
			for c := 0; c < cfg.Cols; c++ {
				p.tiles = append(p.tiles, w.Tile(r, c))
			}
		}
	}
	for chip := 0; chip < rack.NumChips(); chip++ {
		p.chips = append(p.chips, rack.TileOf(chip))
		p.breakers = append(p.breakers, s.breakerFor(Request{Op: OpEstablish, A: chip}, nil))
	}
	return p
}

// TestValueArraysNeverMove holds the construction rule: the rack's
// wafers and tiles and the server's breakers live in arrays sized once
// and never appended to, so a pointer taken right after NewServer is
// still the live object after establishes, releases, a fault of every
// class, the repairs, a health probe and a restore into the same
// server. An append to any of those arrays moves it and fails here.
func TestValueArraysNeverMove(t *testing.T) {
	s := newTestServer(t, nil)
	want := pointersOf(s)
	rack := s.Allocator().Rack()
	chips := rack.NumChips()

	at := unit.Seconds(0)
	step := func() unit.Seconds { at += 10 * unit.Microsecond; return at }
	var held []int
	for a := 0; a < 12; a++ {
		// Half the pairs cross the trunk between the two wafers.
		b := (a + 5) % chips
		if a%2 == 1 {
			b = chips - 1 - a
		}
		if resp := submit(s, Request{Op: OpEstablish, A: a, B: b, Width: 2}, step()); resp.Status == StatusOK {
			held = append(held, resp.Circuit)
		}
	}
	if len(held) < 8 {
		t.Fatalf("only %d of 12 establishes granted", len(held))
	}
	for _, id := range held[:3] {
		if resp := submit(s, Request{Op: OpRelease, Circuit: id}, step()); resp.Status != StatusOK {
			t.Fatalf("release %d: %+v", id, resp)
		}
	}
	faults := []chaos.Fault{
		{Class: chaos.LaserDeath, Chip: 5},
		{Class: chaos.MZIStuck, Chip: 6, Switch: 1},
		{Class: chaos.WaveguideLoss, Wafer: 0, Horizontal: true, Lane: 0, Pos: 3, ExtraLossDB: 30},
		{Class: chaos.FiberCut, Trunk: 0, Row: 1},
		{Class: chaos.ChipFailure, Chip: 7},
	}
	if len(faults) != chaos.NumClasses {
		t.Fatalf("%d faults for %d classes", len(faults), chaos.NumClasses)
	}
	for _, f := range faults {
		if _, err := s.ApplyFault(f, step()); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
	for _, f := range faults {
		if err := s.Allocator().Repair(f); err != nil {
			t.Fatalf("repair %v: %v", f, err)
		}
	}
	if resp := submit(s, Request{Op: OpEstablish, A: 7, B: 40, Width: 2}, step()); resp.Status != StatusOK {
		t.Fatalf("establish after repairs: %+v", resp)
	}
	if resp := submit(s, Request{Op: OpHealth}, step()); len(resp.Regions) != chips {
		t.Fatalf("health reports %d regions, want %d", len(resp.Regions), chips)
	}

	var e snapshot.Encoder
	s.EncodeState(&e)
	d := snapshot.NewDecoder(e.Bytes())
	if err := s.RestoreState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if s.Auditor().Count() != 0 {
		t.Fatalf("auditor flagged the drive: %v", s.Auditor().Err())
	}

	got := pointersOf(s)
	// TileOf and Wafer.Tile hand out the same tiles: the wafers' tiles
	// are windows on the rack's chip array, in chip order.
	for chip := range got.chips {
		if got.chips[chip] != got.tiles[chip] {
			t.Errorf("TileOf(%d) is not its wafer's tile", chip)
		}
	}
	for i := range want.wafers {
		if got.wafers[i] != want.wafers[i] {
			t.Errorf("wafer %d moved", i)
		}
	}
	for i := range want.tiles {
		if got.tiles[i] != want.tiles[i] {
			t.Errorf("tile %d (row-major over the wafers) moved", i)
		}
	}
	for chip := range want.chips {
		if got.chips[chip] != want.chips[chip] {
			t.Errorf("TileOf(%d) moved", chip)
		}
		if got.breakers[chip] != want.breakers[chip] {
			t.Errorf("breaker of chip %d moved", chip)
		}
	}
	// The pointers are not only stable but live: the tile TileOf gave
	// out before the drive carries the restored reservations.
	used := 0
	for _, tile := range want.chips {
		used += tile.UsedPorts()
	}
	if want := 2 * s.Allocator().NumCircuits(); used != want {
		t.Fatalf("tiles taken at construction hold %d endpoint ports, the live circuits %d", used, want)
	}
}
