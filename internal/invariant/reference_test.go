package invariant_test

import (
	"fmt"
	"sort"

	"lightpath/internal/invariant"
	"lightpath/internal/route"
	"lightpath/internal/wafer"
)

// This file holds the reference the differential tests compare the
// one-walk audit against: the six separate checks the auditor ran
// before it folded them into a single pass over the circuit table,
// copied verbatim — the comparator sort-and-sweep disjointness check
// that preceded the live index, and the five conservation, health and
// switch checks (only the scratch context is declared here, since the
// auditor's own is private).

type checkCtx struct {
	circuits []*route.Circuit
	switches []route.SwitchExpectation
	segs     []segOwner
	fibs     []fibOwner
	perRow   []int
	lasers   []int
	ports    []int
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
	if a == b {
		return append(out, fmt.Sprintf("circuit %d holds one bus position or fiber twice", a))
	}
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
		if so.seg.Ref.Span.Lo <= reach.seg.Ref.Span.Hi {
			out = sharePair(out, reach.id, so.id)
		}
		if so.seg.Ref.Span.Hi > reach.seg.Ref.Span.Hi {
			reach = so
		}
	}
	sort.Sort(fibsByRef(ctx.fibs))
	for i := 1; i < len(ctx.fibs); i++ {
		prev, cur := ctx.fibs[i-1], ctx.fibs[i]
		if prev.fib == cur.fib {
			out = sharePair(out, prev.id, cur.id)
		}
	}
	return out
}

// referenceDisjointness runs the reference check over a's circuits.
func referenceDisjointness(a *route.Allocator) []string {
	return checkDisjointness(a, &checkCtx{circuits: a.Circuits()})
}

// referenceChecks lists the reference checks in registry order.
var referenceChecks = []func(a *route.Allocator, ctx *checkCtx) []string{
	checkDisjointness,
	checkBusConservation,
	checkFiberConservation,
	checkEndpointConservation,
	checkBudgetHealth,
	checkSwitchConsistency,
}

// referenceAudit is one Auditor.Audit pass built from the six
// reference checks, run one after another in registry order over one
// shared context.
func referenceAudit(a *route.Allocator, op string) []invariant.Violation {
	var out []invariant.Violation
	ctx := checkCtx{circuits: a.Circuits()}
	for i, inv := range invariant.Registry() {
		for _, detail := range referenceChecks[i](a, &ctx) {
			out = append(out, invariant.Violation{Invariant: inv.Name, Op: op, Detail: detail})
		}
	}
	return out
}

func checkBusConservation(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	segments := 0
	for _, c := range ctx.circuits {
		segments += len(c.Segments)
		for _, s := range c.Segments {
			if !rack.Wafer(s.Wafer).BusSpanAllocated(s.Ref) {
				out = append(out, fmt.Sprintf("circuit %d segment %v is not allocated in the lane occupancy", c.ID, s))
			}
		}
	}
	allocated := 0
	for w := 0; w < rack.NumWafers(); w++ {
		allocated += rack.Wafer(w).AllocatedSpans()
	}
	if allocated != segments {
		out = append(out, fmt.Sprintf("rack holds %d allocated bus spans but circuits account for %d (leak or double free)", allocated, segments))
	}
	return out
}

// grownZeroed returns buf resized to n with every element zero.
func grownZeroed(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func checkFiberConservation(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	cfg := rack.Config()
	rows := cfg.Rows
	ctx.perRow = grownZeroed(ctx.perRow, rack.NumTrunks()*rows)
	fibers := 0
	for _, c := range ctx.circuits {
		fibers += len(c.Fibers)
		for _, f := range c.Fibers {
			if !rack.FiberAllocated(f) {
				out = append(out, fmt.Sprintf("circuit %d fiber %v is not occupied in the rack", c.ID, f))
			}
			if f.Trunk >= 0 && f.Trunk < rack.NumTrunks() && f.Row >= 0 && f.Row < rows {
				ctx.perRow[f.Trunk*rows+f.Row]++
			}
		}
	}
	if used := rack.FibersInUse(); used != fibers {
		out = append(out, fmt.Sprintf("rack holds %d occupied fibers but circuits account for %d (leak or double free)", used, fibers))
	}
	for trunk := 0; trunk < rack.NumTrunks(); trunk++ {
		for row := 0; row < rows; row++ {
			if got, want := rack.FibersInRow(trunk, row), ctx.perRow[trunk*rows+row]; got != want {
				out = append(out, fmt.Sprintf("rack says trunk %d row %d uses %d fibers, circuits use %d", trunk, row, got, want))
			}
		}
	}
	return out
}

func checkEndpointConservation(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	chips := rack.NumChips()
	ctx.lasers = grownZeroed(ctx.lasers, chips)
	ctx.ports = grownZeroed(ctx.ports, chips)
	for _, c := range ctx.circuits {
		for _, ep := range [2]int{c.A, c.B} {
			if ep >= 0 && ep < chips {
				ctx.lasers[ep] += c.Width
				ctx.ports[ep]++
			}
		}
	}
	for chip := 0; chip < chips; chip++ {
		t := rack.TileOf(chip)
		if got := t.UsedLasers(); got != ctx.lasers[chip] {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) reserves %d lasers but circuit widths sum to %d", chip, t.Row, t.Col, got, ctx.lasers[chip]))
		}
		if got := t.UsedPorts(); got != ctx.ports[chip] {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) reserves %d SerDes ports but %d circuits terminate there", chip, t.Row, t.Col, got, ctx.ports[chip]))
		}
		if t.FreeLasers() < 0 {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) is over-committed: %d free lasers", chip, t.Row, t.Col, t.FreeLasers()))
		}
		if t.FreePorts() < 0 {
			out = append(out, fmt.Sprintf("chip %d tile (%d,%d) is over-committed: %d free SerDes ports", chip, t.Row, t.Col, t.FreePorts()))
		}
	}
	return out
}

func checkBudgetHealth(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	rack := a.Rack()
	for _, c := range ctx.circuits {
		for _, ep := range [2]int{c.A, c.B} {
			if !rack.TileOf(ep).ChipHealthy() {
				out = append(out, fmt.Sprintf("circuit %d terminates at failed chip %d", c.ID, ep))
			}
		}
		for _, s := range c.Segments {
			if rack.Wafer(s.Wafer).SpanSevered(s.Ref.Orient, s.Ref.Lane, s.Ref.Span) {
				out = append(out, fmt.Sprintf("circuit %d crosses severed segment %v", c.ID, s))
			}
		}
		for _, f := range c.Fibers {
			if a.Rack().FiberRowCut(f.Trunk, f.Row) {
				out = append(out, fmt.Sprintf("circuit %d uses cut fiber row (trunk %d, row %d)", c.ID, f.Trunk, f.Row))
			}
		}
		// Without budget checking the allocator legitimately admits
		// margin-negative circuits, so feasibility is only an invariant
		// when the allocator itself enforces it.
		if a.CheckBudget && !a.StillFeasible(c) {
			out = append(out, fmt.Sprintf("circuit %d no longer closes its optical budget (margin %v, degradation since establish exceeds it)", c.ID, c.Link.MarginDB))
		}
	}
	return out
}

func checkSwitchConsistency(a *route.Allocator, ctx *checkCtx) []string {
	var out []string
	for _, c := range ctx.circuits {
		ctx.switches = a.AppendCircuitSwitches(ctx.switches[:0], c)
		for _, se := range ctx.switches {
			if got := se.Tile.Switches[se.Switch].Port(); got != se.Port {
				out = append(out, fmt.Sprintf("circuit %d needs tile (%d,%d) switch %d on port %d, hardware says port %d",
					c.ID, se.Tile.Row, se.Tile.Col, se.Switch, se.Port, got))
			}
		}
	}
	return out
}
