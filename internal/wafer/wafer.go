package wafer

import (
	"errors"
	"fmt"
)

// Capacity-exhaustion sentinels. These fire on every failed probe of a
// contended resource — the steady state of an overloaded fabric — so
// they are preallocated rather than formatted per call. Callers that
// need the specific trunk/tile already know it from their arguments.
var (
	// ErrFibersExhausted reports a trunk row with every fiber occupied.
	ErrFibersExhausted = errors.New("wafer: all fibers on the trunk row are occupied")
	// ErrLasersExhausted reports a tile without enough free lasers for
	// a requested circuit width.
	ErrLasersExhausted = errors.New("wafer: not enough free lasers on the tile")
	// ErrPortsExhausted reports a tile with no free SerDes port.
	ErrPortsExhausted = errors.New("wafer: no free SerDes ports on the tile")
)

// Orient distinguishes horizontal bus waveguides (running along a tile
// row) from vertical ones (along a tile column).
type Orient byte

// Bus orientations.
const (
	Horizontal Orient = 'H'
	Vertical   Orient = 'V'
)

// String names the orientation.
func (o Orient) String() string {
	if o == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// Interval is an inclusive range of tile positions [Lo, Hi] along a
// bus lane.
type Interval struct {
	Lo, Hi int
}

// overlaps reports whether two inclusive intervals share a position.
func (iv Interval) overlaps(o Interval) bool {
	return iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// busLane tracks occupancy of the parallel buses of one lane (one tile
// row or column). Buses are allocated first-fit and lazily: with
// 10,000 buses per lane and a handful of circuits, only touched buses
// consume memory.
type busLane struct {
	capacity int
	// buses[i] holds the intervals currently occupying bus i; only
	// buses < len(buses) have ever been touched.
	buses [][]Interval
}

// alloc finds the first bus whose existing intervals do not overlap
// iv, occupies it, and returns the bus index.
func (l *busLane) alloc(iv Interval) (int, error) {
	if iv.Lo > iv.Hi {
		return 0, fmt.Errorf("wafer: inverted interval [%d,%d]", iv.Lo, iv.Hi)
	}
	for i := range l.buses {
		if !overlapsAny(l.buses[i], iv) {
			l.buses[i] = append(l.buses[i], iv)
			return i, nil
		}
	}
	if len(l.buses) >= l.capacity {
		return 0, fmt.Errorf("wafer: lane exhausted (%d buses all occupied)", l.capacity)
	}
	l.buses = append(l.buses, []Interval{iv})
	return len(l.buses) - 1, nil
}

// free releases the interval from the bus. It panics if the interval
// was not allocated — a release of something never acquired is a
// caller bug that must not be silently absorbed.
func (l *busLane) free(bus int, iv Interval) {
	if bus < 0 || bus >= len(l.buses) {
		panic(fmt.Sprintf("wafer: free of untouched bus %d", bus))
	}
	ivs := l.buses[bus]
	for i := range ivs {
		if ivs[i] == iv {
			l.buses[bus] = append(ivs[:i], ivs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("wafer: free of unallocated interval [%d,%d] on bus %d", iv.Lo, iv.Hi, bus))
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

func overlapsAny(ivs []Interval, iv Interval) bool {
	for _, o := range ivs {
		if o.overlaps(iv) {
			return true
		}
	}
	return false
}

// BusRef identifies one allocated bus segment on a wafer.
type BusRef struct {
	Orient Orient
	// Lane is the tile row (Horizontal) or tile column (Vertical).
	Lane int
	// Bus is the index of the waveguide within the lane.
	Bus int
	// Span is the tile-position interval occupied.
	Span Interval
}

// String formats the reference.
func (b BusRef) String() string {
	return fmt.Sprintf("%s lane %d bus %d span [%d,%d]", b.Orient, b.Lane, b.Bus, b.Span.Lo, b.Span.Hi)
}

// Wafer is one LIGHTPATH wafer: a grid of tiles plus the bus
// waveguides that interconnect them.
type Wafer struct {
	cfg   Config
	tiles []*Tile
	// hLanes[row] and vLanes[col] are the bus lanes.
	hLanes []*busLane
	vLanes []*busLane
	// loss is the dense grid of fault-induced extra loss in dB, one
	// cell per bus-lane position (see health.go); nil until the first
	// fault. lossSet flags the cells carrying a fault record — a 0 dB
	// degradation counts until repaired — and degraded counts them.
	loss     []float64
	lossSet  []bool
	degraded int
}

// New constructs a wafer from the configuration.
func New(cfg Config) (*Wafer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Wafer{cfg: cfg}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			w.tiles = append(w.tiles, newTile(r, c, cfg))
		}
	}
	for r := 0; r < cfg.Rows; r++ {
		w.hLanes = append(w.hLanes, &busLane{capacity: cfg.BusesPerLane})
	}
	for c := 0; c < cfg.Cols; c++ {
		w.vLanes = append(w.vLanes, &busLane{capacity: cfg.BusesPerLane})
	}
	return w, nil
}

// Config returns the wafer's configuration.
func (w *Wafer) Config() Config { return w.cfg }

// Tile returns the tile at (row, col).
func (w *Wafer) Tile(row, col int) *Tile {
	t := w.TileAt(row, col)
	if t == nil {
		panic(fmt.Sprintf("wafer: tile (%d,%d) out of %dx%d grid", row, col, w.cfg.Rows, w.cfg.Cols))
	}
	return t
}

// TileAt returns the tile at (row, col), or nil when the position lies
// off the grid.
func (w *Wafer) TileAt(row, col int) *Tile {
	if row < 0 || row >= w.cfg.Rows || col < 0 || col >= w.cfg.Cols {
		return nil
	}
	return w.tiles[row*w.cfg.Cols+col]
}

// TileByIndex returns tile i in row-major order.
func (w *Wafer) TileByIndex(i int) *Tile {
	if i < 0 || i >= len(w.tiles) {
		panic(fmt.Sprintf("wafer: tile index %d out of range", i))
	}
	return w.tiles[i]
}

// TileIndex converts (row, col) to the row-major index.
func (w *Wafer) TileIndex(row, col int) int { return row*w.cfg.Cols + col }

// AllocBus occupies a free bus of the given orientation and lane over
// the span, returning a reference for later release.
func (w *Wafer) AllocBus(o Orient, lane int, span Interval) (BusRef, error) {
	l, err := w.lane(o, lane)
	if err != nil {
		return BusRef{}, err
	}
	bus, err := l.alloc(span)
	if err != nil {
		return BusRef{}, fmt.Errorf("wafer: %s lane %d: %w", o, lane, err)
	}
	return BusRef{Orient: o, Lane: lane, Bus: bus, Span: span}, nil
}

// FreeBus releases a previously allocated bus segment.
func (w *Wafer) FreeBus(ref BusRef) {
	l, err := w.lane(ref.Orient, ref.Lane)
	if err != nil {
		panic(err)
	}
	l.free(ref.Bus, ref.Span)
}

// BusSpanAllocated reports whether the exact interval of ref is
// currently allocated on its bus — the ground truth the invariant
// auditor checks every established circuit segment against. An
// out-of-range or never-touched reference is simply not allocated.
func (w *Wafer) BusSpanAllocated(ref BusRef) bool {
	l, err := w.lane(ref.Orient, ref.Lane)
	if err != nil || ref.Bus < 0 || ref.Bus >= len(l.buses) {
		return false
	}
	for _, iv := range l.buses[ref.Bus] {
		if iv == ref.Span {
			return true
		}
	}
	return false
}

// AllocatedSpans counts the bus intervals currently allocated across
// the wafer's lanes; conservation demands it equal the total segment
// count of established circuits.
func (w *Wafer) AllocatedSpans() int {
	n := 0
	for _, l := range w.hLanes {
		for _, ivs := range l.buses {
			n += len(ivs)
		}
	}
	for _, l := range w.vLanes {
		for _, ivs := range l.buses {
			n += len(ivs)
		}
	}
	return n
}

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

func (w *Wafer) lane(o Orient, lane int) (*busLane, error) {
	switch o {
	case Horizontal:
		if lane < 0 || lane >= len(w.hLanes) {
			return nil, fmt.Errorf("wafer: horizontal lane %d out of range", lane)
		}
		return w.hLanes[lane], nil
	case Vertical:
		if lane < 0 || lane >= len(w.vLanes) {
			return nil, fmt.Errorf("wafer: vertical lane %d out of range", lane)
		}
		return w.vLanes[lane], nil
	default:
		return nil, fmt.Errorf("wafer: unknown orientation %q", o)
	}
}
