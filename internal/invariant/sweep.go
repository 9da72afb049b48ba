package invariant

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// The disjointness check sorts every bus segment and every fiber the
// circuits hold and sweeps the sorted order once. Each element is
// packed into one uint64 whose unsigned order is the sweep order, so
// slices.Sort orders plain integers and the sweep reads everything it
// needs back out of the key. A field's width is derived from the value
// range the audit walk observed, so even a corrupted state (negative
// lanes, huge IDs) packs as long as its ranges fit; one whose ranges
// do not fit in 64 bits takes the comparator sweep at the bottom of
// this file.

// valueRange is one key field's observed value range in a pass.
type valueRange struct{ min, max int }

// emptyRange holds no value; add widens it.
var emptyRange = valueRange{min: math.MaxInt, max: math.MinInt}

func (r *valueRange) add(v int) {
	r.min = min(r.min, v)
	r.max = max(r.max, v)
}

// width is the bit count of the range's largest offset.
func (r valueRange) width() uint { return uint(bits.Len64(uint64(r.max) - uint64(r.min))) }

// off is v's offset from the range minimum; offsets order like values.
func (r valueRange) off(v int) uint64 { return uint64(v) - uint64(r.min) }

// at maps an offset back to its value.
func (r valueRange) at(off uint64) int { return int(uint64(r.min) + off) }

// mask has the low w bits set (all 64 for w = 64).
func mask(w uint) uint64 { return uint64(1)<<w - 1 }

// segLayout packs a segment, from the most significant bits down, as
// wafer, orient, lane, bus, span.Lo, circuit ID, span.Hi: key order is
// bus by bus, spans by start, ties by owner and then by end. Lo and Hi
// share one range so their offsets compare directly.
type segLayout struct {
	wafer, orient, lane, bus, pos, id valueRange
	// Field shifts; span.Hi sits at bit 0. bits is the key width.
	idShift, loShift, busShift, laneShift, orientShift, waferShift, bits uint
}

func newSegLayout() segLayout {
	return segLayout{wafer: emptyRange, orient: emptyRange, lane: emptyRange,
		bus: emptyRange, pos: emptyRange, id: emptyRange}
}

func (l *segLayout) observe(id int, s route.Segment) {
	l.wafer.add(s.Wafer)
	l.orient.add(int(s.Ref.Orient))
	l.lane.add(s.Ref.Lane)
	l.bus.add(s.Ref.Bus)
	l.pos.add(s.Ref.Span.Lo)
	l.pos.add(s.Ref.Span.Hi)
	l.id.add(id)
}

// fit lays the fields out at their observed widths and reports whether
// the key fits in 64 bits.
func (l *segLayout) fit() bool {
	l.idShift = l.pos.width()
	l.loShift = l.idShift + l.id.width()
	l.busShift = l.loShift + l.pos.width()
	l.laneShift = l.busShift + l.bus.width()
	l.orientShift = l.laneShift + l.lane.width()
	l.waferShift = l.orientShift + l.orient.width()
	l.bits = l.waferShift + l.wafer.width()
	return l.bits <= 64
}

func (l *segLayout) key(id int, s route.Segment) uint64 {
	return l.wafer.off(s.Wafer)<<l.waferShift |
		l.orient.off(int(s.Ref.Orient))<<l.orientShift |
		l.lane.off(s.Ref.Lane)<<l.laneShift |
		l.bus.off(s.Ref.Bus)<<l.busShift |
		l.pos.off(s.Ref.Span.Lo)<<l.loShift |
		l.id.off(id)<<l.idShift |
		l.pos.off(s.Ref.Span.Hi)
}

// sweep walks sorted segment keys: any segment starting at or before
// the end of the farthest-reaching earlier segment on its bus (reach)
// overlaps it.
func (l *segLayout) sweep(out []string, keys []uint64) []string {
	posMask, idMask := mask(l.pos.width()), mask(l.id.width())
	var reachBus, reachID, reachHi uint64
	for i, k := range keys {
		bus, lo, id, hi := k>>l.busShift, (k>>l.loShift)&posMask, (k>>l.idShift)&idMask, k&posMask
		if i == 0 || bus != reachBus {
			reachBus, reachID, reachHi = bus, id, hi
			continue
		}
		if lo <= reachHi && id != reachID {
			out = sharePair(out, l.id.at(reachID), l.id.at(id))
		}
		if hi > reachHi {
			reachID, reachHi = id, hi
		}
	}
	return out
}

// fibLayout packs a fiber, from the most significant bits down, as
// trunk, row, fiber, circuit ID.
type fibLayout struct {
	trunk, row, fiber, id valueRange
	// Field shifts; the circuit ID sits at bit 0. bits is the key
	// width.
	fiberShift, rowShift, trunkShift, bits uint
}

func newFibLayout() fibLayout {
	return fibLayout{trunk: emptyRange, row: emptyRange, fiber: emptyRange, id: emptyRange}
}

func (l *fibLayout) observe(id int, f wafer.FiberRef) {
	l.trunk.add(f.Trunk)
	l.row.add(f.Row)
	l.fiber.add(f.Fiber)
	l.id.add(id)
}

func (l *fibLayout) fit() bool {
	l.fiberShift = l.id.width()
	l.rowShift = l.fiberShift + l.fiber.width()
	l.trunkShift = l.rowShift + l.row.width()
	l.bits = l.trunkShift + l.trunk.width()
	return l.bits <= 64
}

func (l *fibLayout) key(id int, f wafer.FiberRef) uint64 {
	return l.trunk.off(f.Trunk)<<l.trunkShift |
		l.row.off(f.Row)<<l.rowShift |
		l.fiber.off(f.Fiber)<<l.fiberShift |
		l.id.off(id)
}

// sweep reports adjacent sorted keys naming the same fiber for two
// different circuits.
func (l *fibLayout) sweep(out []string, keys []uint64) []string {
	idMask := mask(l.id.width())
	for i := 1; i < len(keys); i++ {
		prev, cur := keys[i-1], keys[i]
		if prev>>l.fiberShift == cur>>l.fiberShift && prev&idMask != cur&idMask {
			out = sharePair(out, l.id.at(prev&idMask), l.id.at(cur&idMask))
		}
	}
	return out
}

func sharePair(out []string, a, b int) []string {
	if b < a {
		a, b = b, a
	}
	return append(out, fmt.Sprintf("circuits %d and %d share a bus segment or fiber", a, b))
}

// sweepSegments appends the overlapping segment pairs to out: it packs
// every segment at the layout the walk observed, sorts the keys bus by
// bus and sweeps them, or takes the comparator sweep when the ranges
// do not fit.
func (ctx *checkCtx) sweepSegments(out []string) []string {
	l := &ctx.seg
	if !l.fit() {
		return sweepSegmentsByComparator(out, ctx)
	}
	keys := ctx.keys[:0]
	//lightpath:hotloop
	for _, c := range ctx.circuits {
		for _, s := range c.Segments {
			keys = append(keys, l.key(c.ID, s))
		}
	}
	slices.Sort(keys)
	ctx.keys = keys
	return l.sweep(out, keys)
}

// sweepFibers appends the pairs of circuits holding one fiber to out,
// packing and sorting fiber by fiber, or by comparator when the ranges
// do not fit.
func (ctx *checkCtx) sweepFibers(out []string) []string {
	l := &ctx.fib
	if !l.fit() {
		return sweepFibersByComparator(out, ctx)
	}
	keys := ctx.keys[:0]
	//lightpath:hotloop
	for _, c := range ctx.circuits {
		for _, f := range c.Fibers {
			keys = append(keys, l.key(c.ID, f))
		}
	}
	slices.Sort(keys)
	ctx.keys = keys
	return l.sweep(out, keys)
}

// The comparator sweep: the implementation that preceded the packed
// keys, kept verbatim for states whose value ranges cannot pack into
// 64 bits — a corrupted state is the only way to get there.

// segOwner tags a circuit's segment with its owner for the
// disjointness sweep.
type segOwner struct {
	seg route.Segment
	id  int
}

type segsByBus []segOwner

func (s segsByBus) Len() int { return len(s) }
func (s segsByBus) Less(i, j int) bool {
	a, b := s[i].seg, s[j].seg
	if a.Wafer != b.Wafer {
		return a.Wafer < b.Wafer
	}
	if a.Ref.Orient != b.Ref.Orient {
		return a.Ref.Orient < b.Ref.Orient
	}
	if a.Ref.Lane != b.Ref.Lane {
		return a.Ref.Lane < b.Ref.Lane
	}
	if a.Ref.Bus != b.Ref.Bus {
		return a.Ref.Bus < b.Ref.Bus
	}
	if a.Ref.Span.Lo != b.Ref.Span.Lo {
		return a.Ref.Span.Lo < b.Ref.Span.Lo
	}
	return s[i].id < s[j].id
}
func (s segsByBus) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

func sameBus(a, b route.Segment) bool {
	return a.Wafer == b.Wafer && a.Ref.Orient == b.Ref.Orient &&
		a.Ref.Lane == b.Ref.Lane && a.Ref.Bus == b.Ref.Bus
}

// fibOwner tags a circuit's fiber with its owner for the sweep.
type fibOwner struct {
	fib wafer.FiberRef
	id  int
}

type fibsByRef []fibOwner

func (s fibsByRef) Len() int { return len(s) }
func (s fibsByRef) Less(i, j int) bool {
	a, b := s[i].fib, s[j].fib
	if a.Trunk != b.Trunk {
		return a.Trunk < b.Trunk
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	if a.Fiber != b.Fiber {
		return a.Fiber < b.Fiber
	}
	return s[i].id < s[j].id
}
func (s fibsByRef) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

func sweepSegmentsByComparator(out []string, ctx *checkCtx) []string {
	ctx.segs = ctx.segs[:0]
	for _, c := range ctx.circuits {
		for _, s := range c.Segments {
			ctx.segs = append(ctx.segs, segOwner{seg: s, id: c.ID})
		}
	}
	sort.Sort(segsByBus(ctx.segs))
	// reach is the earlier same-bus segment extending farthest right;
	// any later segment starting at or before reach.Hi overlaps it.
	var reach segOwner
	for i, so := range ctx.segs {
		if i == 0 || !sameBus(reach.seg, so.seg) {
			reach = so
			continue
		}
		if so.seg.Ref.Span.Lo <= reach.seg.Ref.Span.Hi && so.id != reach.id {
			out = sharePair(out, reach.id, so.id)
		}
		if so.seg.Ref.Span.Hi > reach.seg.Ref.Span.Hi {
			reach = so
		}
	}
	return out
}

func sweepFibersByComparator(out []string, ctx *checkCtx) []string {
	ctx.fibs = ctx.fibs[:0]
	for _, c := range ctx.circuits {
		for _, f := range c.Fibers {
			ctx.fibs = append(ctx.fibs, fibOwner{fib: f, id: c.ID})
		}
	}
	sort.Sort(fibsByRef(ctx.fibs))
	for i := 1; i < len(ctx.fibs); i++ {
		prev, cur := ctx.fibs[i-1], ctx.fibs[i]
		if prev.fib == cur.fib && prev.id != cur.id {
			out = sharePair(out, prev.id, cur.id)
		}
	}
	return out
}
