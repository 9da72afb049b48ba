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
// else. Every other mutation (a fault, a fiber row failed or
// restored, a repair behind the allocator) makes the next sampled
// audit a full pass.
func deltaOp(op string) bool {
	return op == "establish" || op == "commit" || op == "release"
}

// liveIndex is the delta audits' record of the live circuits, built by
// a clean sampled full pass and brought up to date by each delta. It
// holds its own copy of what each circuit holds, so removing a
// circuit never rereads the released route.Circuit.
type liveIndex struct {
	// valid reports whether the index matches the circuit table as of
	// the last sampled audit, with no untrusted mutation since.
	valid bool
	// live lists the indexed circuits in ID order. spans and fibers
	// hold their resources, circuit after circuit in the same order.
	live   []indexed
	spans  []heldSpan
	fibers []int
	// busy[lane][bus] has bit p set when position p of that bus is
	// held; lane is a lane slot (see spanKey). fiberHeld is indexed by
	// fiber slot (see fiberKey).
	busy      [][]uint64
	fiberHeld []bool
	// t tallies what the indexed circuits hold.
	t tally
	// The index's geometry, from the rack it was built on.
	geo                       geometry
	cols, buses, fibersPerRow int
	// touchedChips and touchedRowSlots collect the chips and trunk
	// rows (trunk*rows + row) the current delta's circuits touch.
	touchedChips, touchedRowSlots []int
}

// indexed is one live circuit as the index recorded it.
type indexed struct {
	// c identifies the circuit; it is compared, never dereferenced.
	c               *route.Circuit
	id, a, b, width int
	spans, fibers   int
}

// heldSpan is one segment: the positions it holds on a bus, as a bit
// mask.
type heldSpan struct {
	lane, bus int
	span      uint64
}

// rebuild indexes the circuits a clean full pass just walked,
// adopting its tallies. It leaves the index invalid when the table is
// out of ID order or a circuit's keys do not fit.
func (x *liveIndex) rebuild(ctx *checkCtx, a *route.Allocator) {
	x.valid = false
	rack := a.Rack()
	cfg := rack.Config()
	// A bus's positions must fit one mask word.
	if cfg.Rows > 64 || cfg.Cols > 64 {
		return
	}
	x.geo, x.cols, x.buses, x.fibersPerRow = ctx.geo, cfg.Cols, cfg.BusesPerLane, cfg.FibersPerEdge
	lanes := x.geo.wafers * (x.geo.rows + x.cols)
	if len(x.busy) != lanes {
		x.busy = make([][]uint64, lanes)
	}
	for _, lane := range x.busy {
		clear(lane)
	}
	if n := x.geo.trunks * x.geo.rows * x.fibersPerRow; len(x.fiberHeld) != n {
		x.fiberHeld = make([]bool, n)
	} else {
		clear(x.fiberHeld)
	}
	x.live, x.spans, x.fibers = x.live[:0], x.spans[:0], x.fibers[:0]
	x.touchedChips, x.touchedRowSlots = x.touchedChips[:0], x.touchedRowSlots[:0]
	last := math.MinInt
	for _, c := range ctx.circuits {
		if c.ID <= last || !x.hold(c) {
			return
		}
		last = c.ID
	}
	x.t.segments, x.t.fibers = ctx.t.segments, ctx.t.fibers
	x.t.perRow = append(x.t.perRow[:0], ctx.t.perRow...)
	x.t.lasers = append(x.t.lasers[:0], ctx.t.lasers...)
	x.t.ports = append(x.t.ports[:0], ctx.t.ports...)
	x.valid = true
}

// delta audits the circuits added and removed since the index was
// last brought up to date, and reports whether the state passed. It
// merge-diffs the ID-ordered table against the index: IDs are issued
// monotonically and a committed circuit is never rewritten, so an
// indexed circuit missing from the table was released, and the table's
// circuits past the last indexed ID were added. False means a check
// failed or the delta cannot be trusted (a table out of ID order, an
// indexed ID now naming another circuit, a key that does not fit); the
// index is then half updated, and the caller must run a full pass.
func (x *liveIndex) delta(ctx *checkCtx, a *route.Allocator) bool {
	ctx.begin(a)
	cur := ctx.circuits
	x.touchedChips, x.touchedRowSlots = x.touchedChips[:0], x.touchedRowSlots[:0]
	last := math.MinInt
	if n := len(x.live); n > 0 {
		last = x.live[n-1].id
	}
	i, kept, spanR, spanW, fibR, fibW := 0, 0, 0, 0, 0, 0
	//lightpath:hotloop
	for _, e := range x.live {
		spans, fibers := x.spans[spanR:spanR+e.spans], x.fibers[fibR:fibR+e.fibers]
		spanR, fibR = spanR+e.spans, fibR+e.fibers
		switch {
		case i < len(cur) && cur[i].ID == e.id:
			if cur[i] != e.c {
				return false
			}
			x.live[kept] = e
			kept, i = kept+1, i+1
			spanW += copy(x.spans[spanW:], spans)
			fibW += copy(x.fibers[fibW:], fibers)
		case i < len(cur) && cur[i].ID < e.id:
			return false
		default:
			x.unhold(e, spans, fibers)
		}
	}
	x.live, x.spans, x.fibers = x.live[:kept], x.spans[:spanW], x.fibers[:fibW]
	//lightpath:hotloop
	for _, c := range cur[i:] {
		if c.ID <= last {
			return false
		}
		last = c.ID
		if ctx.check(a, c, &x.t); !ctx.clean() || !x.hold(c) {
			return false
		}
	}
	return x.matchesRack(a)
}

// matchesRack compares the running tallies with the rack: the
// allocated span and occupied fiber totals, and the allocator's row
// mirror and the tile counters where the delta touched them.
func (x *liveIndex) matchesRack(a *route.Allocator) bool {
	rack := a.Rack()
	allocated := 0
	for w := 0; w < x.geo.wafers; w++ {
		allocated += rack.Wafer(w).AllocatedSpans()
	}
	if allocated != x.t.segments || rack.FibersInUse() != x.t.fibers {
		return false
	}
	//lightpath:hotloop
	for _, slot := range x.touchedRowSlots {
		if a.FiberRowUsage(slot/x.geo.rows, slot%x.geo.rows) != x.t.perRow[slot] {
			return false
		}
	}
	//lightpath:hotloop
	for _, chip := range x.touchedChips {
		t := rack.TileOf(chip)
		if t.UsedLasers() != x.t.lasers[chip] || t.UsedPorts() != x.t.ports[chip] || t.FreeLasers() < 0 || t.FreePorts() < 0 {
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
		x.touchedRowSlots = append(x.touchedRowSlots, slot/x.fibersPerRow)
	}
	x.live = append(x.live, indexed{c: c, id: c.ID, a: c.A, b: c.B, width: c.Width,
		spans: len(c.Segments), fibers: len(c.Fibers)})
	x.touchedChips = append(x.touchedChips, c.A, c.B)
	return true
}

// unhold releases a removed circuit's resources from the index and
// its holdings from the tallies, from the index's own copies.
func (x *liveIndex) unhold(e indexed, spans []heldSpan, fibers []int) {
	for _, h := range spans {
		x.busy[h.lane][h.bus] &^= h.span
	}
	for _, slot := range fibers {
		x.fiberHeld[slot] = false
		row := slot / x.fibersPerRow
		x.t.perRow[row]--
		x.touchedRowSlots = append(x.touchedRowSlots, row)
	}
	x.t.segments -= e.spans
	x.t.fibers -= e.fibers
	for _, chip := range [2]int{e.a, e.b} {
		x.t.lasers[chip] -= e.width
		x.t.ports[chip]--
	}
	x.touchedChips = append(x.touchedChips, e.a, e.b)
}

// spanKey locates a segment in the index: its lane slot (wafer by
// wafer, a wafer's horizontal lanes before its vertical ones), its bus,
// and the mask of the positions its span covers. ok is false when any
// of them lies off the rack or the span is inverted.
func (x *liveIndex) spanKey(s route.Segment) (lane, bus int, span uint64, ok bool) {
	lanes, positions, first := x.geo.rows, x.cols, 0
	switch s.Ref.Orient {
	case wafer.Horizontal:
	case wafer.Vertical:
		lanes, positions, first = x.cols, x.geo.rows, x.geo.rows
	default:
		return 0, 0, 0, false
	}
	sp := s.Ref.Span
	if s.Wafer < 0 || s.Wafer >= x.geo.wafers || s.Ref.Lane < 0 || s.Ref.Lane >= lanes ||
		s.Ref.Bus < 0 || s.Ref.Bus >= x.buses || sp.Lo < 0 || sp.Lo > sp.Hi || sp.Hi >= positions {
		return 0, 0, 0, false
	}
	lane = s.Wafer*(x.geo.rows+x.cols) + first + s.Ref.Lane
	return lane, s.Ref.Bus, spanMask(sp), true
}

// spanMask has bits Lo through Hi set.
func spanMask(sp wafer.Interval) uint64 { return mask(uint(sp.Hi+1)) &^ mask(uint(sp.Lo)) }

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
	if f.Trunk < 0 || f.Trunk >= x.geo.trunks || f.Row < 0 || f.Row >= x.geo.rows || f.Fiber < 0 || f.Fiber >= x.fibersPerRow {
		return 0, false
	}
	return (f.Trunk*x.geo.rows+f.Row)*x.fibersPerRow + f.Fiber, true
}
