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

// LaneExhaustedError reports a bus lane where every bus already
// carries an interval overlapping the requested span. The message is
// formatted only when read: route probes hit this on every plan a
// crowded lane turns down.
type LaneExhaustedError struct {
	Orient   Orient
	Lane     int
	Capacity int
}

// Error names the lane and its bus count.
func (e *LaneExhaustedError) Error() string {
	return fmt.Sprintf("wafer: %s lane %d: wafer: lane exhausted (%d buses all occupied)", e.Orient, e.Lane, e.Capacity)
}

// alloc finds the first bus whose existing intervals do not overlap
// iv, occupies it, and returns the bus index; false means every bus of
// the lane overlaps iv.
func (l *busLane) alloc(iv Interval) (int, bool) {
	for i := range l.buses {
		if !overlapsAny(l.buses[i], iv) {
			l.buses[i] = append(l.buses[i], iv)
			return i, true
		}
	}
	if len(l.buses) >= l.capacity {
		return 0, false
	}
	l.buses = append(l.buses, []Interval{iv})
	return len(l.buses) - 1, true
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

// AllocBus occupies a free bus of the given orientation and lane over
// the span, returning a reference for later release. A lane with no
// bus free over the whole span fails with a *LaneExhaustedError.
func (w *Wafer) AllocBus(o Orient, lane int, span Interval) (BusRef, error) {
	l, err := w.lane(o, lane)
	if err != nil {
		return BusRef{}, err
	}
	if span.Lo > span.Hi {
		return BusRef{}, fmt.Errorf("wafer: %s lane %d: wafer: inverted interval [%d,%d]", o, lane, span.Lo, span.Hi)
	}
	bus, ok := l.alloc(span)
	if !ok {
		return BusRef{}, &LaneExhaustedError{Orient: o, Lane: lane, Capacity: l.capacity}
	}
	return BusRef{Orient: o, Lane: lane, Bus: bus, Span: span}, nil
}

// FreshBuses returns how many buses of the lane have never been
// touched. Each of them is empty, so up to that many allocations on
// the lane succeed whatever their spans. The lane must be in range.
func (w *Wafer) FreshBuses(o Orient, lane int) int {
	l := w.mustLane(o, lane)
	return l.capacity - len(l.buses)
}

// FirstFitBus returns the bus AllocBus(o, lane, span) would occupy if
// the pending references — allocations on the same lane that are
// planned but not yet made — were already in place, and false where
// AllocBus would fail with a *LaneExhaustedError. It changes nothing.
// The lane must be in range and span must not be inverted.
func (w *Wafer) FirstFitBus(o Orient, lane int, span Interval, pending []BusRef) (int, bool) {
	l := w.mustLane(o, lane)
	for bus := 0; bus < l.capacity; bus++ {
		if bus < len(l.buses) && overlapsAny(l.buses[bus], span) {
			continue
		}
		if !pendingOverlaps(pending, bus, span) {
			return bus, true
		}
	}
	return 0, false
}

// pendingOverlaps reports whether a pending reference holds bus over
// a position of span.
func pendingOverlaps(pending []BusRef, bus int, span Interval) bool {
	for _, p := range pending {
		if p.Bus == bus && p.Span.overlaps(span) {
			return true
		}
	}
	return false
}

// FreeBus releases a previously allocated bus segment.
func (w *Wafer) FreeBus(ref BusRef) {
	w.mustLane(ref.Orient, ref.Lane).free(ref.Bus, ref.Span)
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

// mustLane is lane for callers whose lane is in range by
// construction; a bad one is a caller bug.
func (w *Wafer) mustLane(o Orient, lane int) *busLane {
	l, err := w.lane(o, lane)
	if err != nil {
		panic(err)
	}
	return l
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
