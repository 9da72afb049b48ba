package invariant

import (
	"cmp"
	"fmt"
	"slices"

	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// The disjointness reporter. A full pass decides disjointness with the
// live index (delta.go): a clean rebuild proves that no bus position
// or fiber is held twice, by two circuits or by one. Only when the rebuild fails (a
// clash, a key off the rack, a table out of ID order, a wafer more than
// 64 tiles on a side) does the reporter run, to name the pairs: it
// sorts every segment and every fiber the circuits hold and sweeps the
// sorted order once.

// segOwner tags a circuit's segment with its owner.
type segOwner struct {
	seg route.Segment
	id  int
}

// compareSegs orders segments bus by bus (wafer, orient, lane, bus),
// spans by start, ties by owner and then by end.
func compareSegs(a, b segOwner) int {
	return cmp.Or(
		cmp.Compare(a.seg.Wafer, b.seg.Wafer),
		cmp.Compare(a.seg.Ref.Orient, b.seg.Ref.Orient),
		cmp.Compare(a.seg.Ref.Lane, b.seg.Ref.Lane),
		cmp.Compare(a.seg.Ref.Bus, b.seg.Ref.Bus),
		cmp.Compare(a.seg.Ref.Span.Lo, b.seg.Ref.Span.Lo),
		cmp.Compare(a.id, b.id),
		cmp.Compare(a.seg.Ref.Span.Hi, b.seg.Ref.Span.Hi),
	)
}

func sameBus(a, b route.Segment) bool {
	return a.Wafer == b.Wafer && a.Ref.Orient == b.Ref.Orient &&
		a.Ref.Lane == b.Ref.Lane && a.Ref.Bus == b.Ref.Bus
}

// fibOwner tags a circuit's fiber with its owner.
type fibOwner struct {
	fib wafer.FiberRef
	id  int
}

// compareFibs orders fibers by trunk, row and fiber, ties by owner.
func compareFibs(a, b fibOwner) int {
	return cmp.Or(
		cmp.Compare(a.fib.Trunk, b.fib.Trunk),
		cmp.Compare(a.fib.Row, b.fib.Row),
		cmp.Compare(a.fib.Fiber, b.fib.Fiber),
		cmp.Compare(a.id, b.id),
	)
}

// sharePair reports two circuits, or one circuit twice, holding one
// bus position or fiber.
func sharePair(out []string, a, b int) []string {
	if a == b {
		return append(out, fmt.Sprintf("circuit %d holds one bus position or fiber twice", a))
	}
	if b < a {
		a, b = b, a
	}
	return append(out, fmt.Sprintf("circuits %d and %d share a bus segment or fiber", a, b))
}

// sweepSegments appends the overlapping segment pairs to out, a
// circuit overlapping itself included. Any segment starting at or
// before the end of the farthest-reaching earlier segment on its bus
// (reach) overlaps it.
func (ctx *checkCtx) sweepSegments(out []string) []string {
	ctx.segs = ctx.segs[:0]
	for _, c := range ctx.circuits {
		for _, s := range c.Segments {
			ctx.segs = append(ctx.segs, segOwner{seg: s, id: c.ID})
		}
	}
	slices.SortFunc(ctx.segs, compareSegs)
	var reach segOwner
	for i, so := range ctx.segs {
		if i == 0 || !sameBus(reach.seg, so.seg) {
			reach = so
			continue
		}
		if so.seg.Ref.Span.Lo <= reach.seg.Ref.Span.Hi {
			out = sharePair(out, reach.id, so.id)
		}
		if so.seg.Ref.Span.Hi > reach.seg.Ref.Span.Hi {
			reach = so
		}
	}
	return out
}

// sweepFibers appends the pairs of circuits holding one fiber to out:
// adjacent sorted fibers that match, a circuit holding one twice
// included.
func (ctx *checkCtx) sweepFibers(out []string) []string {
	ctx.fibs = ctx.fibs[:0]
	for _, c := range ctx.circuits {
		for _, f := range c.Fibers {
			ctx.fibs = append(ctx.fibs, fibOwner{fib: f, id: c.ID})
		}
	}
	slices.SortFunc(ctx.fibs, compareFibs)
	for i := 1; i < len(ctx.fibs); i++ {
		prev, cur := ctx.fibs[i-1], ctx.fibs[i]
		if prev.fib == cur.fib {
			out = sharePair(out, prev.id, cur.id)
		}
	}
	return out
}
