package wafer

import (
	"fmt"
	"testing"
	"testing/quick"

	"lightpath/internal/unit"
)

func TestDefaultConfigHeadlines(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// §3: "A LIGHTPATH wafer consists of 32 tiles that can
	// interconnect 32 chips".
	if cfg.Tiles() != 32 {
		t.Fatalf("tiles = %d, want 32", cfg.Tiles())
	}
	// "each accelerator is 3D stacked on a LIGHTPATH tile equipped
	// with 16 lasers and photodiodes".
	if cfg.LasersPerTile != 16 {
		t.Fatalf("lasers = %d, want 16", cfg.LasersPerTile)
	}
	// "One wavelength can sustain up to 224 Gbps".
	if cfg.WavelengthCapacity != 224*unit.Gbps {
		t.Fatalf("wavelength = %v, want 224 Gbps", cfg.WavelengthCapacity)
	}
	// Tile egress = 16 x 224 Gbps = 3.584 Tbps.
	if cfg.TileEgress() != 3584*unit.Gbps {
		t.Fatalf("egress = %v, want 3.584 Tbps", cfg.TileEgress())
	}
}

// TestFig4WaveguideDensity is experiment E3: "LIGHTPATH can support
// over 10,000 waveguides per tile since each waveguide and MZI has a
// pitch of 3 um" (Figure 4).
func TestFig4WaveguideDensity(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.WaveguidesPerTileGeometric(); got < 10000 {
		t.Fatalf("waveguides per tile = %d, want >= 10000", got)
	}
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.Cols = -1 },
		func(c *Config) { c.LasersPerTile = 0 },
		func(c *Config) { c.SerDesPortsPerTile = 0 },
		func(c *Config) { c.WavelengthCapacity = 0 },
		func(c *Config) { c.BusesPerLane = 0 },
		func(c *Config) { c.FibersPerEdge = -1 },
		func(c *Config) { c.TileEdge = 0 },
		func(c *Config) { c.WaveguidePitch = 0 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSwitch13Programming(t *testing.T) {
	var s Switch13
	for port := 0; port < SwitchDegree; port++ {
		if err := s.Program(port); err != nil {
			t.Fatalf("program %d: %v", port, err)
		}
		if s.Port() != port {
			t.Fatalf("port = %d, want %d", s.Port(), port)
		}
	}
	if err := s.Program(3); err == nil {
		t.Fatal("port 3 accepted on a 1x3 switch")
	}
	if err := s.Program(-1); err == nil {
		t.Fatal("negative port accepted")
	}
}

func TestTileResourceAccounting(t *testing.T) {
	cfg := DefaultConfig()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tile := w.Tile(0, 0)
	if tile.FreeLasers() != 16 || tile.FreePorts() != 16 {
		t.Fatalf("fresh tile: %d lasers, %d ports", tile.FreeLasers(), tile.FreePorts())
	}
	if err := tile.Reserve(4); err != nil {
		t.Fatal(err)
	}
	if tile.FreeLasers() != 12 || tile.FreePorts() != 15 {
		t.Fatalf("after reserve: %d lasers, %d ports", tile.FreeLasers(), tile.FreePorts())
	}
	if err := tile.Reserve(13); err == nil {
		t.Fatal("over-reservation of lasers accepted")
	}
	if err := tile.Reserve(0); err == nil {
		t.Fatal("zero-width reservation accepted")
	}
	tile.Release(4)
	if tile.FreeLasers() != 16 || tile.FreePorts() != 16 {
		t.Fatal("release did not restore resources")
	}
	// Port exhaustion: 16 one-laser circuits exhaust the SerDes ports.
	for i := 0; i < 16; i++ {
		if err := tile.Reserve(1); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	if err := tile.Reserve(1); err == nil {
		t.Fatal("17th port reservation accepted")
	}
}

func TestTileGridAccessors(t *testing.T) {
	w, _ := New(DefaultConfig())
	tile := w.Tile(2, 5)
	if tile.Row != 2 || tile.Col != 5 {
		t.Fatalf("tile coords (%d,%d)", tile.Row, tile.Col)
	}
	idx := w.TileIndex(2, 5)
	if w.TileByIndex(idx) != tile {
		t.Fatal("TileByIndex mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-grid tile did not panic")
		}
	}()
	w.Tile(4, 0)
}

func TestBusAllocationDisjoint(t *testing.T) {
	w, _ := New(DefaultConfig())
	// Two overlapping spans land on different buses.
	a, err := w.AllocBus(Horizontal, 0, Interval{Lo: 0, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.AllocBus(Horizontal, 0, Interval{Lo: 2, Hi: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Bus == b.Bus {
		t.Fatal("overlapping spans share a bus")
	}
	// A disjoint span reuses the first bus (first fit).
	c, err := w.AllocBus(Horizontal, 0, Interval{Lo: 4, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.Bus != a.Bus {
		t.Fatalf("disjoint span got bus %d, want %d (first fit)", c.Bus, a.Bus)
	}
	h, v := w.BusesInUse()
	if h != 2 || v != 0 {
		t.Fatalf("buses in use = %d/%d, want 2/0", h, v)
	}
	w.FreeBus(a)
	w.FreeBus(b)
	w.FreeBus(c)
	h, _ = w.BusesInUse()
	if h != 0 {
		t.Fatalf("buses still in use after free: %d", h)
	}
}

func TestBusLaneExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BusesPerLane = 2
	w, _ := New(cfg)
	span := Interval{Lo: 0, Hi: 7}
	if _, err := w.AllocBus(Vertical, 3, span); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AllocBus(Vertical, 3, span); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AllocBus(Vertical, 3, span); err == nil {
		t.Fatal("third allocation on a 2-bus lane accepted")
	}
}

func TestBusAllocationErrors(t *testing.T) {
	w, _ := New(DefaultConfig())
	if _, err := w.AllocBus(Horizontal, 99, Interval{0, 1}); err == nil {
		t.Error("bad lane accepted")
	}
	if _, err := w.AllocBus(Orient('X'), 0, Interval{0, 1}); err == nil {
		t.Error("bad orientation accepted")
	}
	if _, err := w.AllocBus(Horizontal, 0, Interval{3, 1}); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestFreeBusPanicsOnDoubleFree(t *testing.T) {
	w, _ := New(DefaultConfig())
	ref, err := w.AllocBus(Horizontal, 1, Interval{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	w.FreeBus(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	w.FreeBus(ref)
}

// Property: any sequence of allocations on one lane yields pairwise
// non-overlapping intervals per bus.
func TestBusDisjointnessProperty(t *testing.T) {
	f := func(spans []struct{ Lo, Hi uint8 }) bool {
		cfg := DefaultConfig()
		w, _ := New(cfg)
		type alloc struct {
			bus int
			iv  Interval
		}
		var allocs []alloc
		for _, s := range spans {
			lo, hi := int(s.Lo%8), int(s.Hi%8)
			if lo > hi {
				lo, hi = hi, lo
			}
			ref, err := w.AllocBus(Horizontal, 0, Interval{Lo: lo, Hi: hi})
			if err != nil {
				return false // 10,000 buses cannot exhaust here
			}
			allocs = append(allocs, alloc{bus: ref.Bus, iv: ref.Span})
		}
		for i := range allocs {
			for j := i + 1; j < len(allocs); j++ {
				if allocs[i].bus == allocs[j].bus && allocs[i].iv.overlaps(allocs[j].iv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOrientString(t *testing.T) {
	if Horizontal.String() != "horizontal" || Vertical.String() != "vertical" {
		t.Fatal("orient strings wrong")
	}
}

func TestBusRefString(t *testing.T) {
	ref := BusRef{Orient: Vertical, Lane: 2, Bus: 7, Span: Interval{1, 3}}
	if s := ref.String(); s != "vertical lane 2 bus 7 span [1,3]" {
		t.Fatalf("string = %q", s)
	}
}

// New builds one wafer from the configuration, as a one-wafer rack's
// constructor does.
func New(cfg Config) (*Wafer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, _ := newWafers(cfg, 1)
	return &ws[0], nil
}

// TileByIndex returns tile i in row-major order.
func (w *Wafer) TileByIndex(i int) *Tile {
	if i < 0 || i >= len(w.tiles) {
		panic(fmt.Sprintf("wafer: tile index %d out of range", i))
	}
	return &w.tiles[i]
}

// TileIndex converts (row, col) to the row-major index.
func (w *Wafer) TileIndex(row, col int) int { return row*w.cfg.Cols + col }

// BusesInUse reports the number of occupied buses per orientation,
// for utilization reporting.
func (w *Wafer) BusesInUse() (horizontal, vertical int) {
	for _, l := range w.hLanes {
		horizontal += l.inUse()
	}
	for _, l := range w.vLanes {
		vertical += l.inUse()
	}
	return
}

// inUse counts buses with at least one occupied interval.
func (l *busLane) inUse() int {
	n := 0
	for _, ivs := range l.buses {
		if len(ivs) > 0 {
			n++
		}
	}
	return n
}
