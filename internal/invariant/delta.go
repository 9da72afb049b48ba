package invariant

import (
	"math"

	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// Delta audits. Between two sampled audits only the circuits
// established or released since the first have changed, so a Sampled
// auditor checks just those: the per-circuit checks on the circuits
// added, disjointness of their segments and fibers against an index of
// the live circuits, and the rack's counters against running tallies.
// Every fullPassEvery-th sampled audit is still a full pass, and so is
// any sampled audit the index cannot vouch for (see Auditor.sample).
//
// A delta audit reports nothing itself. When any of its checks fails
// it hands over to a full pass on the same state, whose violations
// are the audit's result, so a delta never reports a violation the
// full registry would not.

// fullPassEvery is the sampled-audit cycle: one full pass, then up to
// fullPassEvery-1 delta audits.
const fullPassEvery = 16

// deltaOp reports whether a delta audit can follow op: establishing
// and releasing circuits add and remove circuits and change nothing
// else. Every other mutation (a fault or a repair) makes the next
// sampled audit a full pass.
func deltaOp(op string) bool {
	return op == "establish" || op == "commit" || op == "release"
}

// liveIndex is the auditor's record of the live circuits and the one
// structure that decides disjointness. Every full pass rebuilds it from
// the circuit table, and each delta audit brings it up to date. It
// holds its own copy of what each circuit holds, so removing a circuit
// never rereads the released route.Circuit. What the indexed circuits
// hold is tallied in the pass's checkCtx.t.
type liveIndex struct {
	// valid reports whether the index matches the circuit table as of
	// the last clean full pass or delta, with no untrusted mutation
	// since.
	valid bool
	// live lists the indexed circuits in ID order. spans and fibers
	// hold their resources, each circuit's at its offsets, appended in
	// ID order. A removed circuit's records stay in place, counted by
	// released, until the removed circuits outnumber the live ones;
	// compact then packs the live ones down. A delta audit copies no
	// kept circuit's records.
	live     []indexed
	spans    []heldSpan
	fibers   []int
	released int
	// busy[lane][bus] has bit p set when position p of that bus is
	// held; lane is a lane slot (see spanKey). fiberHeld is indexed by
	// fiber slot (see fiberKey).
	busy      [][]uint64
	fiberHeld []bool
	// geo is the geometry of the rack the index was built on.
	geo geometry
	// touchedChips and touchedRowSlots collect the chips and trunk
	// rows (trunk*rows + row) the current delta's circuits touch.
	touchedChips, touchedRowSlots []int
}

// indexed is one live circuit as the index recorded it: its records
// are spans[spanAt:spanAt+spans] and fibers[fibAt:fibAt+fibers].
type indexed struct {
	// c identifies the circuit; it is compared, never dereferenced.
	c               *route.Circuit
	id, a, b, width int
	spanAt, spans   int
	fibAt, fibers   int
}

// heldSpan is one segment: the positions it holds on a bus, as a bit
// mask.
type heldSpan struct {
	lane, bus int
	span      uint64
}

// rebuild indexes the circuits of the table a full pass just walked,
// on a rack of geometry g, and reports whether they are disjoint. It
// fails, leaving the index invalid, when two circuits (or one circuit
// twice) claim a bus position or a fiber, when an endpoint or a key
// lies off the rack, when the table is out of ID order, or when a
// wafer is more than 64 tiles on a side.
func (x *liveIndex) rebuild(circuits []*route.Circuit, g geometry) bool {
	x.valid = false
	x.geo = g
	// A bus's positions must fit one mask word.
	if g.rows > 64 || g.cols > 64 {
		return false
	}
	lanes := g.wafers * (g.rows + g.cols)
	if len(x.busy) != lanes {
		x.busy = make([][]uint64, lanes)
	}
	for _, lane := range x.busy {
		clear(lane)
	}
	if n := g.trunks * g.rows * g.fibersPerRow; len(x.fiberHeld) != n {
		x.fiberHeld = make([]bool, n)
	} else {
		clear(x.fiberHeld)
	}
	x.live, x.spans, x.fibers, x.released = x.live[:0], x.spans[:0], x.fibers[:0], 0
	x.touchedChips, x.touchedRowSlots = x.touchedChips[:0], x.touchedRowSlots[:0]
	last := math.MinInt
	//lightpath:hotloop
	for _, c := range circuits {
		if c.ID <= last || !x.hold(c) {
			return false
		}
		last = c.ID
	}
	x.valid = true
	return true
}

// delta audits the circuits added and removed since the index was
// last brought up to date, and reports whether the state passed. It
// merge-diffs the ID-ordered table against the index: IDs are issued
// monotonically and a committed circuit is never rewritten, so an
// indexed circuit missing from the table was released, and the table's
// circuits past the last indexed ID were added. False means a check
// failed or the delta cannot be trusted (a table out of ID order, an
// indexed ID now naming another circuit, a key that does not fit); the
// index and the tallies are then half updated, and the caller must run
// a full pass.
func (ctx *checkCtx) delta(a *route.Allocator) bool {
	ctx.begin(a)
	x := &ctx.idx
	cur := ctx.circuits
	x.touchedChips, x.touchedRowSlots = x.touchedChips[:0], x.touchedRowSlots[:0]
	last := math.MinInt
	if n := len(x.live); n > 0 {
		last = x.live[n-1].id
	}
	i, kept := 0, 0
	//lightpath:hotloop
	for _, e := range x.live {
		switch {
		case i < len(cur) && cur[i].ID == e.id:
			if cur[i] != e.c {
				return false
			}
			x.live[kept] = e
			kept, i = kept+1, i+1
		case i < len(cur) && cur[i].ID < e.id:
			return false
		default:
			x.unhold(&ctx.t, e)
			x.released++
		}
	}
	x.live = x.live[:kept]
	//lightpath:hotloop
	for _, c := range cur[i:] {
		if c.ID <= last {
			return false
		}
		last = c.ID
		if ctx.check(a, c); !ctx.clean() || !x.hold(c) {
			return false
		}
	}
	if x.released > len(x.live) {
		x.compact()
	}
	return x.matchesRack(a, &ctx.t)
}

// compact drops the records of removed circuits, moving each live
// circuit's down in ID order. Offsets ascend in that order, so every
// move is to an offset no higher than the one it leaves.
func (x *liveIndex) compact() {
	spanW, fibW := 0, 0
	//lightpath:hotloop
	for k := range x.live {
		e := &x.live[k]
		copy(x.spans[spanW:], x.spans[e.spanAt:e.spanAt+e.spans])
		copy(x.fibers[fibW:], x.fibers[e.fibAt:e.fibAt+e.fibers])
		e.spanAt, e.fibAt = spanW, fibW
		spanW, fibW = spanW+e.spans, fibW+e.fibers
	}
	x.spans, x.fibers, x.released = x.spans[:spanW], x.fibers[:fibW], 0
}

// matchesRack compares the running tallies t with the rack: the
// allocated span and occupied fiber totals, and the per-row fiber
// counts and the tile counters where the delta touched them.
func (x *liveIndex) matchesRack(a *route.Allocator, t *tally) bool {
	rack := a.Rack()
	allocated := 0
	for w := 0; w < x.geo.wafers; w++ {
		allocated += rack.Wafer(w).AllocatedSpans()
	}
	if allocated != t.segments || rack.FibersInUse() != t.fibers {
		return false
	}
	//lightpath:hotloop
	for _, slot := range x.touchedRowSlots {
		if rack.FibersInRow(slot/x.geo.rows, slot%x.geo.rows) != t.perRow[slot] {
			return false
		}
	}
	//lightpath:hotloop
	for _, chip := range x.touchedChips {
		tile := rack.TileOf(chip)
		if tile.UsedLasers() != t.lasers[chip] || tile.UsedPorts() != t.ports[chip] || tile.FreeLasers() < 0 || tile.FreePorts() < 0 {
			return false
		}
	}
	return true
}

// hold records c in the index and marks its resources held. It
// reports false when an endpoint or a key lies off the rack, or when c
// claims a position or fiber some indexed circuit (c included) already
// holds: on a consistent state the rack never grants one twice.
func (x *liveIndex) hold(c *route.Circuit) bool {
	if c.A < 0 || c.A >= x.geo.chips || c.B < 0 || c.B >= x.geo.chips {
		return false
	}
	spanAt, fibAt := len(x.spans), len(x.fibers)
	//lightpath:hotloop
	for _, s := range c.Segments {
		lane, bus, span, ok := x.spanKey(s)
		if !ok {
			return false
		}
		word := x.busWord(lane, bus)
		if *word&span != 0 {
			return false
		}
		*word |= span
		x.spans = append(x.spans, heldSpan{lane: lane, bus: bus, span: span})
	}
	//lightpath:hotloop
	for _, f := range c.Fibers {
		slot, ok := x.fiberKey(f)
		if !ok || x.fiberHeld[slot] {
			return false
		}
		x.fiberHeld[slot] = true
		x.fibers = append(x.fibers, slot)
		x.touchedRowSlots = append(x.touchedRowSlots, slot/x.geo.fibersPerRow)
	}
	x.live = append(x.live, indexed{c: c, id: c.ID, a: c.A, b: c.B, width: c.Width,
		spanAt: spanAt, spans: len(c.Segments), fibAt: fibAt, fibers: len(c.Fibers)})
	x.touchedChips = append(x.touchedChips, c.A, c.B)
	return true
}

// unhold releases a removed circuit's resources from the index and
// its holdings from the tallies t, from the index's own copies.
func (x *liveIndex) unhold(t *tally, e indexed) {
	for _, h := range x.spans[e.spanAt : e.spanAt+e.spans] {
		x.busy[h.lane][h.bus] &^= h.span
	}
	for _, slot := range x.fibers[e.fibAt : e.fibAt+e.fibers] {
		x.fiberHeld[slot] = false
		row := slot / x.geo.fibersPerRow
		t.perRow[row]--
		x.touchedRowSlots = append(x.touchedRowSlots, row)
	}
	t.segments -= e.spans
	t.fibers -= e.fibers
	for _, chip := range [2]int{e.a, e.b} {
		t.lasers[chip] -= e.width
		t.ports[chip]--
	}
	x.touchedChips = append(x.touchedChips, e.a, e.b)
}

// spanKey locates a segment in the index: its lane slot (wafer by
// wafer, a wafer's horizontal lanes before its vertical ones), its bus,
// and the mask of the positions its span covers. ok is false when any
// of them lies off the rack or the span is inverted.
func (x *liveIndex) spanKey(s route.Segment) (lane, bus int, span uint64, ok bool) {
	lanes, positions, first := x.geo.rows, x.geo.cols, 0
	switch s.Ref.Orient {
	case wafer.Horizontal:
	case wafer.Vertical:
		lanes, positions, first = x.geo.cols, x.geo.rows, x.geo.rows
	default:
		return 0, 0, 0, false
	}
	sp := s.Ref.Span
	if s.Wafer < 0 || s.Wafer >= x.geo.wafers || s.Ref.Lane < 0 || s.Ref.Lane >= lanes ||
		s.Ref.Bus < 0 || s.Ref.Bus >= x.geo.buses || sp.Lo < 0 || sp.Lo > sp.Hi || sp.Hi >= positions {
		return 0, 0, 0, false
	}
	lane = s.Wafer*(x.geo.rows+x.geo.cols) + first + s.Ref.Lane
	return lane, s.Ref.Bus, spanMask(sp), true
}

// spanMask has bits Lo through Hi set.
func spanMask(sp wafer.Interval) uint64 { return mask(uint(sp.Hi+1)) &^ mask(uint(sp.Lo)) }

// mask has the low w bits set (all 64 for w = 64).
func mask(w uint) uint64 { return uint64(1)<<w - 1 }

// busWord returns the held-position word of one bus, growing the lane
// to reach it.
func (x *liveIndex) busWord(lane, bus int) *uint64 {
	if l := x.busy[lane]; bus >= len(l) {
		x.busy[lane] = append(l, make([]uint64, bus+1-len(l))...)
	}
	return &x.busy[lane][bus]
}

// fiberKey is a fiber's slot, (trunk*rows + row)*fibersPerRow + fiber;
// ok is false when the fiber lies off the rack.
func (x *liveIndex) fiberKey(f wafer.FiberRef) (int, bool) {
	if f.Trunk < 0 || f.Trunk >= x.geo.trunks || f.Row < 0 || f.Row >= x.geo.rows || f.Fiber < 0 || f.Fiber >= x.geo.fibersPerRow {
		return 0, false
	}
	return (f.Trunk*x.geo.rows+f.Row)*x.geo.fibersPerRow + f.Fiber, true
}
