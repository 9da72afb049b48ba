package wafer

import (
	"fmt"
	"slices"
)

// Rack is a cascade of LIGHTPATH wafers attached with fibers
// (§3, "Fiber connectivity between LIGHTPATH wafers"): circuits can
// leave a wafer at an edge tile, cross a fiber, and continue on the
// next wafer, enabling circuit switching across servers. A TPUv4 rack
// of 64 chips maps onto two 32-tile wafers.
//
// The rack is built once, by value, in a few contiguous arrays: the
// wafers, every wafer's tiles and bus lanes, the trunks, and their
// fiber rows. Those arrays are sized at construction and never
// appended to, so every *Wafer and *Tile the rack hands out stays
// valid for its life; a restore writes into them in place.
type Rack struct {
	cfg    Config
	wafers []Wafer
	// trunks[i] is the fiber bundle between wafer i's right edge
	// (col = Cols-1) and wafer i+1's left edge (col 0), with
	// FibersPerEdge fibers per tile row: N wafers, N-1 trunks.
	trunks []fiberTrunk
	// chips[i] is the tile hosting chip i: the array the wafers' tiles
	// are windows on, wafer after wafer in row-major order. It makes
	// TileOf a bounds check and an index.
	chips []Tile
}

type fiberTrunk struct {
	// used[row][fiber] marks occupied fibers. Every trunk's rows are
	// windows on one array of the rack's.
	used [][]bool
	// cut[row] marks a row taken out by a fiber cut. The rack records
	// the cut; routing consults it, like a severed span.
	cut []bool
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
// trunks: wafer i's right edge to wafer i+1's left edge (§3: "With
// attached fibers, we can cascade several LIGHTPATH wafers to create
// a rack-scale photonic interconnect").
func NewRack(cfg Config, numWafers int) (*Rack, error) {
	if numWafers <= 0 {
		return nil, fmt.Errorf("wafer: rack needs at least one wafer, got %d", numWafers)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Rack{cfg: cfg}
	r.wafers, r.chips = newWafers(cfg, numWafers)
	numTrunks := numWafers - 1
	r.trunks = make([]fiberTrunk, numTrunks)
	rows := make([][]bool, numTrunks*cfg.Rows)
	fibers := make([]bool, len(rows)*cfg.FibersPerEdge)
	cut := make([]bool, len(rows))
	for row := range rows {
		f := row * cfg.FibersPerEdge
		rows[row] = fibers[f : f+cfg.FibersPerEdge : f+cfg.FibersPerEdge]
	}
	for i := range r.trunks {
		row := i * cfg.Rows
		r.trunks[i] = fiberTrunk{
			used: rows[row : row+cfg.Rows : row+cfg.Rows],
			cut:  cut[row : row+cfg.Rows : row+cfg.Rows],
		}
	}
	return r, nil
}

// Config returns the per-wafer configuration.
func (r *Rack) Config() Config { return r.cfg }

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
	return &r.wafers[i]
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

// TileOf returns the tile hosting a chip.
func (r *Rack) TileOf(chip int) *Tile {
	if chip < 0 || chip >= len(r.chips) {
		panic(fmt.Sprintf("wafer: chip %d out of range [0, %d)", chip, len(r.chips)))
	}
	return &r.chips[chip]
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

// FiberFree reports whether the trunk row has an unoccupied fiber,
// that is, whether AllocFiber(trunk, row) would succeed. An
// out-of-range row has none.
func (r *Rack) FiberFree(trunk, row int) bool {
	t, err := r.trunk(trunk, row)
	if err != nil {
		return false
	}
	return slices.Contains(t.used[row], false)
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

// FibersInRow counts the occupied fibers of one trunk row. An
// out-of-range row has none.
func (r *Rack) FibersInRow(trunk, row int) int {
	t, err := r.trunk(trunk, row)
	if err != nil {
		return 0
	}
	n := 0
	for _, used := range t.used[row] {
		if used {
			n++
		}
	}
	return n
}

// SpareFullRows counts the rows of a trunk with no fiber in use and
// no cut — whole rows of spare capacity available for repair (§5,
// "Minimizing fiber requirement for fault tolerance"). The
// fiber-packing ablation compares this between packing policies.
func (r *Rack) SpareFullRows(trunk int) int {
	n := 0
	for row := 0; row < r.cfg.Rows; row++ {
		if r.FibersInRow(trunk, row) == 0 && !r.FiberRowCut(trunk, row) {
			n++
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
	return &r.trunks[trunk], nil
}
