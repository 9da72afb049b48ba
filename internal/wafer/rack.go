package wafer

import (
	"fmt"
)

// Topology is how a rack's wafers are cascaded with fibers.
type Topology int

// Cascade topologies (§3: "With attached fibers, we can cascade
// several LIGHTPATH wafers to create a rack-scale photonic
// interconnect ... Fibers can be attached vertically to the tiles to
// build 3D topologies").
const (
	// Chain connects wafer i to wafer i+1 only: N wafers, N-1 trunks.
	Chain Topology = iota
	// RingTopology additionally closes the loop from the last wafer
	// back to the first: N trunks, halving the worst-case trunk count
	// between distant wafers.
	RingTopology
)

// String names the topology.
func (t Topology) String() string {
	if t == RingTopology {
		return "ring"
	}
	return "chain"
}

// Rack is a cascade of LIGHTPATH wafers attached with fibers
// (§3, "Fiber connectivity between LIGHTPATH wafers"): circuits can
// leave a wafer at an edge tile, cross a fiber, and continue on the
// next wafer, enabling circuit switching across servers. A TPUv4 rack
// of 64 chips maps onto two 32-tile wafers.
type Rack struct {
	cfg      Config
	topology Topology
	wafers   []*Wafer
	// trunks[i] is the fiber bundle between wafer i's right edge
	// (col = Cols-1) and wafer (i+1)%N's left edge (col 0), with
	// FibersPerEdge fibers per tile row. A chain has N-1 trunks; a
	// ring has N.
	trunks []*fiberTrunk
	// chips[i] is the tile hosting chip i: the wafers' row-major tile
	// lists, concatenated. It makes TileOf a bounds check and an index.
	chips []*Tile
}

type fiberTrunk struct {
	// used[row][fiber] marks occupied fibers.
	used [][]bool
}

// FiberRef identifies one allocated inter-wafer fiber.
type FiberRef struct {
	// Trunk is the gap index: trunk t spans wafers t and t+1.
	Trunk int
	// Row is the tile row the fiber attaches at.
	Row int
	// Fiber is the index within the row's bundle.
	Fiber int
}

// String formats the reference.
func (f FiberRef) String() string {
	return fmt.Sprintf("trunk %d row %d fiber %d", f.Trunk, f.Row, f.Fiber)
}

// NewRack builds numWafers identical wafers chained with fiber
// trunks (the Chain topology).
func NewRack(cfg Config, numWafers int) (*Rack, error) {
	return NewRackTopology(cfg, numWafers, Chain)
}

// NewRackTopology builds a rack with the given cascade topology.
func NewRackTopology(cfg Config, numWafers int, topo Topology) (*Rack, error) {
	if numWafers <= 0 {
		return nil, fmt.Errorf("wafer: rack needs at least one wafer, got %d", numWafers)
	}
	if topo != Chain && topo != RingTopology {
		return nil, fmt.Errorf("wafer: unknown topology %d", int(topo))
	}
	r := &Rack{cfg: cfg, topology: topo}
	for i := 0; i < numWafers; i++ {
		w, err := New(cfg)
		if err != nil {
			return nil, err
		}
		r.wafers = append(r.wafers, w)
	}
	r.indexChips()
	numTrunks := numWafers - 1
	if topo == RingTopology && numWafers >= 2 {
		numTrunks = numWafers
	}
	for i := 0; i < numTrunks; i++ {
		t := &fiberTrunk{used: make([][]bool, cfg.Rows)}
		for row := range t.used {
			t.used[row] = make([]bool, cfg.FibersPerEdge)
		}
		r.trunks = append(r.trunks, t)
	}
	return r, nil
}

// indexChips builds the chip→tile table from the wafers.
func (r *Rack) indexChips() {
	r.chips = make([]*Tile, 0, r.NumChips())
	for _, w := range r.wafers {
		r.chips = append(r.chips, w.tiles...)
	}
}

// Config returns the per-wafer configuration.
func (r *Rack) Config() Config { return r.cfg }

// Topology returns the cascade topology.
func (r *Rack) Topology() Topology { return r.topology }

// NumTrunks returns the number of inter-wafer fiber trunks.
func (r *Rack) NumTrunks() int { return len(r.trunks) }

// NumWafers returns the wafer count.
func (r *Rack) NumWafers() int { return len(r.wafers) }

// NumChips returns the total chips the rack can host (one per tile).
func (r *Rack) NumChips() int { return len(r.wafers) * r.cfg.Tiles() }

// Wafer returns wafer i.
func (r *Rack) Wafer(i int) *Wafer {
	if i < 0 || i >= len(r.wafers) {
		panic(fmt.Sprintf("wafer: wafer %d out of range [0, %d)", i, len(r.wafers)))
	}
	return r.wafers[i]
}

// Place maps a chip ID to its (wafer, row, col) tile position: chips
// fill wafers in row-major order.
func (r *Rack) Place(chip int) (waferIdx, row, col int) {
	if chip < 0 || chip >= r.NumChips() {
		panic(fmt.Sprintf("wafer: chip %d out of range [0, %d)", chip, r.NumChips()))
	}
	waferIdx = chip / r.cfg.Tiles()
	local := chip % r.cfg.Tiles()
	return waferIdx, local / r.cfg.Cols, local % r.cfg.Cols
}

// ChipAt is the inverse of Place.
func (r *Rack) ChipAt(waferIdx, row, col int) int {
	if waferIdx < 0 || waferIdx >= len(r.wafers) {
		panic(fmt.Sprintf("wafer: wafer %d out of range", waferIdx))
	}
	return waferIdx*r.cfg.Tiles() + row*r.cfg.Cols + col
}

// TileOf returns the tile hosting a chip.
func (r *Rack) TileOf(chip int) *Tile {
	if chip < 0 || chip >= len(r.chips) {
		panic(fmt.Sprintf("wafer: chip %d out of range [0, %d)", chip, len(r.chips)))
	}
	return r.chips[chip]
}

// AllocFiber occupies one free fiber on the given trunk at the given
// tile row.
func (r *Rack) AllocFiber(trunk, row int) (FiberRef, error) {
	t, err := r.trunk(trunk, row)
	if err != nil {
		return FiberRef{}, err
	}
	for f, used := range t.used[row] {
		if !used {
			t.used[row][f] = true
			return FiberRef{Trunk: trunk, Row: row, Fiber: f}, nil
		}
	}
	// A static sentinel: fiber contention is the dominant failure under
	// load, and building a fresh descriptive error for every exhausted
	// probe dominated the allocation profile of failed establishes.
	return FiberRef{}, ErrFibersExhausted
}

// FreeFiber releases a previously allocated fiber. It panics on a
// double free — that is a caller bug.
func (r *Rack) FreeFiber(ref FiberRef) {
	t, err := r.trunk(ref.Trunk, ref.Row)
	if err != nil {
		panic(err)
	}
	if ref.Fiber < 0 || ref.Fiber >= len(t.used[ref.Row]) || !t.used[ref.Row][ref.Fiber] {
		panic(fmt.Sprintf("wafer: free of unallocated fiber %v", ref))
	}
	t.used[ref.Row][ref.Fiber] = false
}

// FiberAllocated reports whether the referenced fiber is currently
// occupied. An out-of-range reference is simply not allocated.
func (r *Rack) FiberAllocated(ref FiberRef) bool {
	t, err := r.trunk(ref.Trunk, ref.Row)
	if err != nil || ref.Fiber < 0 || ref.Fiber >= len(t.used[ref.Row]) {
		return false
	}
	return t.used[ref.Row][ref.Fiber]
}

// FibersInUse counts occupied fibers across all trunks.
func (r *Rack) FibersInUse() int {
	n := 0
	for _, t := range r.trunks {
		for _, row := range t.used {
			for _, used := range row {
				if used {
					n++
				}
			}
		}
	}
	return n
}

func (r *Rack) trunk(trunk, row int) (*fiberTrunk, error) {
	if trunk < 0 || trunk >= len(r.trunks) {
		return nil, fmt.Errorf("wafer: trunk %d out of range [0, %d)", trunk, len(r.trunks))
	}
	if row < 0 || row >= r.cfg.Rows {
		return nil, fmt.Errorf("wafer: trunk row %d out of range [0, %d)", row, r.cfg.Rows)
	}
	return r.trunks[trunk], nil
}
