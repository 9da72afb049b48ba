package invariant_test

import (
	"fmt"
	"sort"

	"lightpath/internal/invariant"
	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// This file holds the reference the disjointness differential tests
// compare against: the comparator sort-and-sweep the auditor ran before
// it packed its sort keys, copied verbatim (only the scratch context is
// declared here, since the auditor's own is private).

type checkCtx struct {
	circuits []*route.Circuit
	segs     []segOwner
	fibs     []fibOwner
}

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

func sharePair(out []string, a, b int) []string {
	if b < a {
		a, b = b, a
	}
	return append(out, fmt.Sprintf("circuits %d and %d share a bus segment or fiber", a, b))
}

// checkDisjointness verifies pairwise resource disjointness with one
// sort-and-sweep pass per resource class instead of the former O(n²)
// SharesResources walk: segments sorted by bus then span, adjacent
// spans on the same bus checked for overlap against the running
// farthest-reaching earlier span; fibers sorted and checked for
// adjacent duplicates.
func checkDisjointness(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	ctx.segs = ctx.segs[:0]
	ctx.fibs = ctx.fibs[:0]
	for _, c := range ctx.circuits {
		if c.Width < 1 {
			out = append(out, fmt.Sprintf("circuit %d has non-positive width %d", c.ID, c.Width))
		}
		for _, s := range c.Segments {
			ctx.segs = append(ctx.segs, segOwner{seg: s, id: c.ID})
		}
		for _, f := range c.Fibers {
			ctx.fibs = append(ctx.fibs, fibOwner{fib: f, id: c.ID})
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
	sort.Sort(fibsByRef(ctx.fibs))
	for i := 1; i < len(ctx.fibs); i++ {
		prev, cur := ctx.fibs[i-1], ctx.fibs[i]
		if prev.fib == cur.fib && prev.id != cur.id {
			out = sharePair(out, prev.id, cur.id)
		}
	}
	return out
}

// referenceDisjointness runs the reference check over a's circuits.
func referenceDisjointness(a *route.Allocator) []string {
	return checkDisjointness(a, &checkCtx{circuits: a.Circuits()})
}

// referenceAudit is one Auditor.Audit pass with the reference in the
// registry's disjointness slot: every other invariant runs the
// auditor's own check, in registry order.
func referenceAudit(a *route.Allocator, op string) []invariant.Violation {
	var out []invariant.Violation
	for _, inv := range invariant.Registry() {
		check := inv.Check
		if inv.Name == "circuit-disjointness" {
			check = referenceDisjointness
		}
		for _, detail := range check(a) {
			out = append(out, invariant.Violation{Invariant: inv.Name, Op: op, Detail: detail})
		}
	}
	return out
}
