package route

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// ErrNoPath reports that no feasible, resource-disjoint path exists
// for a circuit request.
var ErrNoPath = errors.New("route: no feasible circuit path")

// ErrEndpointFailed reports a circuit request whose endpoint chip is
// failed hardware; no amount of re-pathfinding can help.
var ErrEndpointFailed = errors.New("route: circuit endpoint chip has failed")

// Allocator establishes circuits with a global view of the rack's
// waveguide and fiber occupancy (the "centralized controller" of the
// paper's §5).
type Allocator struct {
	rack *wafer.Rack
	loss *phy.LossModel
	// Budget is the optical link budget circuits are checked against
	// when CheckBudget is set.
	Budget phy.Budget
	// CheckBudget rejects circuits whose optical loss exceeds the
	// budget.
	CheckBudget bool
	// PackFibers selects trunk rows that are already partially used
	// before opening fresh rows, keeping whole rows free as spares
	// for fault tolerance (§5, "Minimizing fiber requirement for
	// fault tolerance"). When false, the row matching the source tile
	// is preferred (shortest path).
	PackFibers bool

	// circuits holds the established circuits in ascending ID order.
	// IDs are issued monotonically (nextID), so place appends, Release
	// deletes in place, and the ID-ordered accessors are plain copies.
	circuits []*Circuit
	nextID   int

	// rowOrder[srcRow] is the precomputed non-packing fiber-row
	// preference order (source row first, then the rest ascending). It
	// is immutable after construction.
	rowOrder [][]int
	// auditHook, when set, runs after every completed top-level
	// mutation with the operation's name; mutDepth tracks nesting so
	// compound operations (ApplyFault releasing circuits) fire the
	// hook once, when the state is consistent again. The attaching
	// layer decides per allocator.
	auditHook func(op string)
	mutDepth  int
	// scratch holds the buffers Establish reuses across calls so the
	// pathfinding hot path stops allocating per circuit. Nothing in it
	// survives a call.
	scratch allocScratch
}

// allocScratch is the per-allocator reusable working storage of the
// Establish hot path. Every field is reset (length zero, capacity
// kept) at the start of the call that uses it.
type allocScratch struct {
	gen     planGen
	plan    plan
	rowUses []rowUse
	rows    []int
	elems   []phy.LossElement
	uses    []switchUse
	segs    []Segment
	fibers  []wafer.FiberRef
	fit     []int
	pending []wafer.BusRef
}

// direction is one way around the wafer cascade a cross-wafer plan
// can take.
type direction struct {
	trunks            []int
	inters            []int // intermediate wafers in path order
	exitCol, enterCol int   // source exit / destination entry columns
}

// rowUse ranks a trunk row for the fiber-packing heuristic.
type rowUse struct{ row, used, free int }

// NewAllocator builds a centralized allocator over the rack. The
// stochastic stitch losses draw from r; a nil r uses mean losses.
func NewAllocator(rack *wafer.Rack, r *rng.Rand) *Allocator {
	a := &Allocator{
		rack:   rack,
		loss:   phy.NewLossModel(r),
		Budget: phy.DefaultBudget(),
	}
	// Precompute the shortest-path fiber-row preference order for every
	// source row: it depends only on the wafer geometry, so computing it
	// per Establish call was pure allocation churn.
	rows := rack.Config().Rows
	a.rowOrder = make([][]int, rows)
	for srcRow := range a.rowOrder {
		order := make([]int, 0, rows)
		order = append(order, srcRow)
		for row := 0; row < rows; row++ {
			if row != srcRow {
				order = append(order, row)
			}
		}
		a.rowOrder[srcRow] = order
	}
	return a
}

// SetAuditHook registers fn to run after every completed top-level
// mutation of the allocator's shared optical state (Establish,
// Release, ApplyFault, Repair and the decentralized commit path),
// with the operation's name. Nested
// mutations — a fault tearing down circuits mid-application — fire
// the hook only once, at the outermost level, so the hook always
// observes a consistent allocator. A nil fn detaches. The hook must
// not mutate the allocator.
func (a *Allocator) SetAuditHook(fn func(op string)) { a.auditHook = fn }

// beginOp/endOp bracket a mutation of shared state; the audit hook
// fires when the outermost bracket closes.
func (a *Allocator) beginOp() { a.mutDepth++ }

func (a *Allocator) endOp(op string) {
	a.mutDepth--
	if a.mutDepth == 0 && a.auditHook != nil {
		a.auditHook(op)
	}
}

// Rack returns the underlying hardware.
func (a *Allocator) Rack() *wafer.Rack { return a.rack }

// Circuits returns the currently established circuits in ID order.
// The cost scales with the live circuit count, not with how many IDs
// have ever been issued — long-running owners (the controller daemon)
// call this from every audit pass.
func (a *Allocator) Circuits() []*Circuit {
	return a.AppendCircuits(make([]*Circuit, 0, len(a.circuits)))
}

// NumCircuits returns the live circuit count without materializing
// the sorted slice.
func (a *Allocator) NumCircuits() int { return len(a.circuits) }

// AppendCircuits appends the established circuits to dst in ID order
// and returns the extended slice. It is the allocation-free (given
// capacity) form of Circuits for callers that audit on a hot path.
func (a *Allocator) AppendCircuits(dst []*Circuit) []*Circuit {
	return append(dst, a.circuits...)
}

// circuitIndex binary-searches the ID-ordered circuit table: the
// position of the circuit with the given ID, or where it would be
// inserted, and whether it is present.
func (a *Allocator) circuitIndex(id int) (int, bool) {
	return slices.BinarySearchFunc(a.circuits, id, func(c *Circuit, id int) int {
		return cmp.Compare(c.ID, id)
	})
}

// planStep is one bus span a candidate path wants.
type planStep struct {
	wafer int
	o     wafer.Orient
	lane  int
	span  wafer.Interval
}

// planKind is the shape of a candidate plan.
type planKind uint8

const (
	planL         planKind = iota // same-wafer L-shape
	planDetourCol                 // same-wafer H-V-H detour via a column
	planDetourRow                 // same-wafer V-H-V detour via a row
	planCross                     // cross-wafer: an L-shape at each end
)

// planKey names one candidate plan before its steps are built: a
// same-wafer L-shape or detour lane, or a cross-wafer direction, fiber
// row and turn order. The trunks and fiber row are all the probe's
// first check reads, so a plan on a full fiber row is turned down
// without its steps ever being built.
type planKey struct {
	kind     planKind
	hFirst   bool  // L-shapes: the horizontal leg comes first
	lane     int   // detours: the middle leg's column or row
	dir      int   // cross-wafer: index into the generator's directions
	fiberRow int   // tile row used for every fiber hop; -1 on one wafer
	trunks   []int // trunk indices crossed, in path order
}

// plan is a candidate path: its key and, once built, its steps.
type plan struct {
	planKey
	steps []planStep
	turns int
}

// clone copies p out of the scratch its steps and trunks point into,
// for a caller that keeps it past the generator's next start.
func (p plan) clone() plan {
	p.steps = slices.Clone(p.steps)
	p.trunks = slices.Clone(p.trunks)
	return p
}

// span builds an interval from two positions in either order.
func span(a, b int) wafer.Interval {
	if a <= b {
		return wafer.Interval{Lo: a, Hi: b}
	}
	return wafer.Interval{Lo: b, Hi: a}
}

// intraWaferSteps appends the path from (r1,c1) to (r2,c2) on one
// wafer to steps. hFirst selects the horizontal-then-vertical L;
// otherwise vertical-then-horizontal.
func intraWaferSteps(steps []planStep, w, r1, c1, r2, c2 int, hFirst bool) []planStep {
	if hFirst {
		if c1 != c2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Horizontal, lane: r1, span: span(c1, c2)})
		}
		if r1 != r2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Vertical, lane: c2, span: span(r1, r2)})
		}
	} else {
		if r1 != r2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Vertical, lane: c1, span: span(r1, r2)})
		}
		if c1 != c2 {
			steps = append(steps, planStep{wafer: w, o: wafer.Horizontal, lane: r2, span: span(c1, c2)})
		}
	}
	return steps
}

// planGen is the one enumerator of candidate plans between two chips.
// next yields them in preference order, as keys; build turns a key
// into its steps. It lives in the allocator's scratch: everything a
// key or a built plan points into stays valid until the next
// startPlans.
type planGen struct {
	a                      *Allocator
	wA, rA, cA, wB, rB, cB int // endpoints, the lower wafer first
	dirs                   []direction
	// The cursor. On one wafer i counts through the L-shapes and the
	// detour lanes; across wafers dir is the current direction, rows
	// its fiber-row order once ranked, and i counts two keys a row.
	i      int
	dir    int
	rows   []int
	ranked bool
}

// startPlans resets the scratch generator for a chip pair and returns
// it. A cross-wafer pair gets its cascade directions here: clockwise
// always; the ring topology also offers the counterclockwise way
// around, which is shorter when the wafers are more than half the
// cascade apart, and the shorter direction goes first.
func (a *Allocator) startPlans(chipA, chipB int) *planGen {
	g := &a.scratch.gen
	g.a = a
	g.wA, g.rA, g.cA = a.rack.Place(chipA)
	g.wB, g.rB, g.cB = a.rack.Place(chipB)
	if g.wA > g.wB {
		g.wA, g.rA, g.cA, g.wB, g.rB, g.cB = g.wB, g.rB, g.cB, g.wA, g.rA, g.cA
	}
	g.dirs = g.dirs[:0]
	g.i, g.dir, g.rows, g.ranked = 0, 0, nil, false
	if g.wA == g.wB {
		return g
	}
	cols, nw := a.rack.Config().Cols, a.rack.NumWafers()
	cw := g.nextDirection(cols-1, 0)
	for t := g.wA; t != g.wB; t = (t + 1) % nw {
		cw.trunks = append(cw.trunks, t)
		if next := (t + 1) % nw; next != g.wB {
			cw.inters = append(cw.inters, next)
		}
	}
	if a.rack.Topology() == wafer.RingTopology && nw >= 2 {
		// nextDirection may move g.dirs, so cw is not used past here.
		ccw := g.nextDirection(0, cols-1)
		for w := g.wA; w != g.wB; w = (w - 1 + nw) % nw {
			ccw.trunks = append(ccw.trunks, (w-1+nw)%nw)
			if prev := (w - 1 + nw) % nw; prev != g.wB {
				ccw.inters = append(ccw.inters, prev)
			}
		}
		if len(g.dirs[1].trunks) < len(g.dirs[0].trunks) {
			g.dirs[0], g.dirs[1] = g.dirs[1], g.dirs[0]
		}
	}
	return g
}

// nextDirection appends an empty direction, recycling the slot's
// trunks/inters capacity from earlier starts.
func (g *planGen) nextDirection(exitCol, enterCol int) *direction {
	if len(g.dirs) < cap(g.dirs) {
		g.dirs = g.dirs[:len(g.dirs)+1]
	} else {
		g.dirs = append(g.dirs, direction{})
	}
	d := &g.dirs[len(g.dirs)-1]
	d.trunks = d.trunks[:0]
	d.inters = d.inters[:0]
	d.exitCol, d.enterCol = exitCol, enterCol
	return d
}

// next returns the next candidate plan's key in preference order, or
// false when there are no more. On one wafer: the horizontal-first and
// vertical-first L-shapes, then Z-shaped detours — when both L
// variants are blocked by bus exhaustion, route via an intermediate
// column (H-V-H) or row (V-H-V); the photonic mesh's path diversity is
// the point of Figure 4's 10,000 waveguides. Across wafers: for each
// direction and each usable fiber row in preference order, the two L
// orders. A direction's rows are ranked when the walk reaches it,
// which sees the fabric ranking them all up front would have seen:
// nothing is allocated until the walk stops.
func (g *planGen) next() (planKey, bool) {
	if g.wA == g.wB {
		return g.nextOnWafer()
	}
	for g.dir < len(g.dirs) {
		trunks := g.dirs[g.dir].trunks
		if !g.ranked {
			g.rows, g.ranked, g.i = g.a.fiberRowOrder(g.rA, trunks), true, 0
		}
		for g.i < 2*len(g.rows) {
			i := g.i
			g.i++
			row := g.rows[i/2]
			if i%2 == 0 && !g.a.rowUsable(row, trunks) {
				g.i++ // neither L order can use the row
				continue
			}
			return planKey{kind: planCross, hFirst: i%2 == 0, dir: g.dir, fiberRow: row, trunks: trunks}, true
		}
		g.dir++
		g.ranked = false
	}
	return planKey{}, false
}

// nextOnWafer is next for a same-wafer pair.
func (g *planGen) nextOnWafer() (planKey, bool) {
	cfg := g.a.rack.Config()
	for ; g.i < 2+cfg.Cols+cfg.Rows; g.i++ {
		switch i := g.i; {
		case i < 2:
			g.i++
			return planKey{kind: planL, hFirst: i == 0, fiberRow: -1}, true
		case i < 2+cfg.Cols:
			if cm := i - 2; g.rA != g.rB && cm != g.cA && cm != g.cB {
				g.i++
				return planKey{kind: planDetourCol, lane: cm, fiberRow: -1}, true
			}
		default:
			if rm := i - 2 - cfg.Cols; g.cA != g.cB && rm != g.rA && rm != g.rB {
				g.i++
				return planKey{kind: planDetourRow, lane: rm, fiberRow: -1}, true
			}
		}
	}
	return planKey{}, false
}

// buildPlan is build, held in a variable only so the package's tests
// can count the plans whose steps get built.
var buildPlan = (*planGen).build

// build fills in the steps and turns of the plan p's key names.
//
//lightpath:hotloop
func (g *planGen) build(p *plan) {
	steps := p.steps[:0]
	switch p.kind {
	case planL:
		steps = intraWaferSteps(steps, g.wA, g.rA, g.cA, g.rB, g.cB, p.hFirst)
	case planDetourCol:
		steps = append(steps,
			planStep{wafer: g.wA, o: wafer.Horizontal, lane: g.rA, span: span(g.cA, p.lane)},
			planStep{wafer: g.wA, o: wafer.Vertical, lane: p.lane, span: span(g.rA, g.rB)},
			planStep{wafer: g.wA, o: wafer.Horizontal, lane: g.rB, span: span(p.lane, g.cB)})
	case planDetourRow:
		steps = append(steps,
			planStep{wafer: g.wA, o: wafer.Vertical, lane: g.cA, span: span(g.rA, p.lane)},
			planStep{wafer: g.wA, o: wafer.Horizontal, lane: p.lane, span: span(g.cA, g.cB)},
			planStep{wafer: g.wA, o: wafer.Vertical, lane: g.cB, span: span(p.lane, g.rB)})
	case planCross:
		dir, row := &g.dirs[p.dir], p.fiberRow
		// Source wafer: to the exit edge at the fiber row.
		steps = intraWaferSteps(steps, g.wA, g.rA, g.cA, row, dir.exitCol, p.hFirst)
		// Intermediate wafers: straight across the fiber row.
		full := wafer.Interval{Lo: 0, Hi: g.a.rack.Config().Cols - 1}
		for _, w := range dir.inters {
			steps = append(steps, planStep{wafer: w, o: wafer.Horizontal, lane: row, span: full})
		}
		// Destination wafer: from the entry edge.
		steps = intraWaferSteps(steps, g.wB, row, dir.enterCol, g.rB, g.cB, p.hFirst)
	}
	p.steps = steps
	p.turns = max(0, len(steps)-1)
}

// fiberRowOrder returns candidate trunk rows in preference order. In
// the shortest-path regime the order is a precomputed table lookup; in
// the packing regime it is recomputed into scratch (occupancy changes
// between calls). Either way the result is read-only for the caller
// and valid until the next call.
func (a *Allocator) fiberRowOrder(srcRow int, trunks []int) []int {
	if !a.PackFibers {
		// Shortest-path preference: the source row first, then the
		// rest — geometry only, precomputed in NewAllocator.
		return a.rowOrder[srcRow]
	}
	cfg := a.rack.Config()
	// Most-used non-full rows first (pack), then the rest.
	uses := a.scratch.rowUses[:0]
	//lightpath:hotloop
	for row := 0; row < cfg.Rows; row++ {
		used, free := a.fiberRowOccupancy(row, trunks)
		uses = append(uses, rowUse{row: row, used: used, free: free})
	}
	rows := a.scratch.rows[:0]
	for {
		best := -1
		for i, u := range uses {
			if u.row < 0 || u.free == 0 {
				continue
			}
			if best < 0 || u.used > uses[best].used {
				best = i
			}
		}
		if best < 0 {
			break
		}
		rows = append(rows, uses[best].row)
		uses[best].row = -1
	}
	a.scratch.rowUses = uses
	a.scratch.rows = rows
	return rows
}

// fiberRowOccupancy reports how many fibers of the row are used and
// free across the trunks the path must cross, taking the minimum free
// across trunks (every trunk needs one).
func (a *Allocator) fiberRowOccupancy(row int, trunks []int) (used, free int) {
	cfg := a.rack.Config()
	free = cfg.FibersPerEdge
	for _, tr := range trunks {
		u := a.rack.FibersInRow(tr, row)
		used += u
		if f := cfg.FibersPerEdge - u; f < free {
			free = f
		}
	}
	return used, free
}

// Request asks for a circuit between two chips at a given wavelength
// width.
type Request struct {
	A, B  int
	Width int
}

// Establish finds a path for the request, allocates its buses, fibers
// and endpoint resources, programs the switches, and returns the
// circuit. It walks the candidate plans' keys in preference order,
// reading each key's trunk fibers first; only a plan whose fibers are
// free gets its steps built and the rest of the read-only probe, and
// the walk stops at the first plan placed. Only the accepted plan is
// allocated, so a failed Establish leaves the fabric as it found it —
// only the loss stream, which budget checks draw from, moves — and
// returns ErrNoPath wrapping the last plan's cause (a budget error
// when the budget turned it down).
func (a *Allocator) Establish(req Request, now unit.Seconds) (*Circuit, error) {
	if req.A == req.B {
		return nil, fmt.Errorf("route: circuit endpoints are the same chip %d", req.A)
	}
	if req.Width <= 0 {
		return nil, fmt.Errorf("route: non-positive width %d", req.Width)
	}
	// Out-of-range chips would panic deep inside rack.Place; a request
	// is external input and must fail with an error instead.
	for _, chip := range [2]int{req.A, req.B} {
		if chip < 0 || chip >= a.rack.NumChips() {
			return nil, fmt.Errorf("route: chip %d out of range [0, %d)", chip, a.rack.NumChips())
		}
		if !a.rack.TileOf(chip).ChipHealthy() {
			return nil, fmt.Errorf("%w: chip %d", ErrEndpointFailed, chip)
		}
	}
	a.beginOp()
	defer a.endOp("establish")
	g := a.startPlans(req.A, req.B)
	p := &a.scratch.plan
	walked := false
	// Endpoint lasers and ports do not depend on the plan: when either
	// end is short, no plan can succeed and none is tried. The error
	// still names the last plan's own cause where it has one, so the
	// keys are walked to the last and only that plan is built.
	if err := a.endpointCause(req); err != nil {
		for k, ok := g.next(); ok; k, ok = g.next() {
			p.planKey, walked = k, true
		}
		if !walked {
			return nil, newNoPathError(req, ErrNoPath)
		}
		buildPlan(g, p)
		if v := a.probe(req, *p); v.cause != causeNone {
			err = a.causeOf(req, *p, v)
		}
		return nil, newNoPathError(req, err)
	}
	var v verdict
	var link phy.LinkReport
	for k, ok := g.next(); ok; k, ok = g.next() {
		p.planKey, walked = k, true
		if v = a.probeFibers(k); v.cause != causeNone {
			continue
		}
		buildPlan(g, p)
		if v = a.probePath(req, *p); v.cause != causeNone {
			continue
		}
		if link = a.evaluate(*p); a.CheckBudget && !link.Feasible {
			continue
		}
		return a.place(req, *p, link, now), nil
	}
	// p holds the last plan. Both sentinels stay unwrappable: errors.Is
	// sees ErrNoPath and whatever sentinel the last plan's cause
	// carries. The message is formatted only if someone reads it — on a
	// saturated fabric this is the common Establish outcome, too hot
	// for fmt.Errorf.
	switch {
	case !walked:
		return nil, newNoPathError(req, ErrNoPath)
	case v.cause == causeNone:
		return nil, newNoPathError(req, &budgetError{a: req.A, b: req.B, link: link})
	case v.cause == causeFiber:
		// Turned down on its fibers, the last plan has no steps yet,
		// and causeOf checks them for a cause reported first.
		buildPlan(g, p)
	}
	return nil, newNoPathError(req, a.causeOf(req, *p, v))
}

// noPathError is the establish failure after every candidate plan was
// rejected. Error formats lazily; Unwrap exposes both ErrNoPath and
// the last plan's cause to errors.Is/As, from a pair filled in at
// construction so that unwrapping allocates nothing.
type noPathError struct {
	a, b int
	errs [2]error // ErrNoPath, then the cause
}

func newNoPathError(req Request, cause error) *noPathError {
	return &noPathError{a: req.A, b: req.B, errs: [2]error{ErrNoPath, cause}}
}

func (e *noPathError) Error() string {
	return fmt.Sprintf("%v: chips %d<->%d: %v", ErrNoPath, e.a, e.b, e.errs[1])
}

func (e *noPathError) Unwrap() []error { return e.errs[:] }

// endpointCause returns the error reserving both endpoints would hit
// (A first), or nil when both have the lasers and a port for the
// request's width. It reserves nothing.
func (a *Allocator) endpointCause(req Request) error {
	ta, tb := a.rack.TileOf(req.A), a.rack.TileOf(req.B)
	if err := ta.CanReserve(req.Width); err != nil {
		return err
	}
	if ta == tb {
		// Only a same-chip request names one tile twice (Establish
		// refuses those; the decentralized batch does not). B's check
		// must see A's share, so hold it for the length of the check.
		_ = ta.Reserve(req.Width) // cannot fail: checked just above
		err := tb.CanReserve(req.Width)
		ta.Release(req.Width)
		return err
	}
	return tb.CanReserve(req.Width)
}

// causeKind names the check a plan failed. The constants are in report
// order: a plan that fails several checks is reported by the first.
type causeKind uint8

const (
	causeNone causeKind = iota
	causeSevered
	causeStuck
	causeBus
	causeFiber
)

// verdict is the probe's answer for one plan: causeNone, or the first
// check that failed and where. It is a value — turning it into an
// error is left to the one plan whose cause gets reported.
type verdict struct {
	cause causeKind
	step  int       // index into the plan's steps (severed, bus)
	sw    switchUse // the stuck switch
}

// causeOf turns plan p's verdict into the error a failed Establish
// reports. The probe tests fibers first because that rejection is the
// cheapest and most common, but in report order a plan that is also
// severed, stuck or out of buses reports that instead. Fiber
// exhaustion stays the wafer's static sentinel; the other causes
// format only when read.
func (a *Allocator) causeOf(req Request, p plan, v verdict) error {
	if v.cause == causeFiber {
		if pv := a.probePath(req, p); pv.cause != causeNone {
			v = pv
		}
	}
	switch v.cause {
	case causeSevered:
		return &severedError{st: p.steps[v.step]}
	case causeStuck:
		return &stuckError{row: v.sw.tile.Row, col: v.sw.tile.Col, sw: v.sw.sw}
	case causeBus:
		st := p.steps[v.step]
		return &wafer.LaneExhaustedError{Orient: st.o, Lane: st.lane, Capacity: a.rack.Config().BusesPerLane}
	case causeFiber:
		return wafer.ErrFibersExhausted
	}
	return nil
}

// severedError reports a plan span crossing a severed waveguide
// segment.
type severedError struct{ st planStep }

func (e *severedError) Error() string {
	return fmt.Sprintf("route: %s lane %d span [%d,%d] on wafer %d crosses a severed segment",
		e.st.o, e.st.lane, e.st.span.Lo, e.st.span.Hi, e.st.wafer)
}

// stuckError reports a switch a plan must program that is stuck.
type stuckError struct{ row, col, sw int }

func (e *stuckError) Error() string {
	return fmt.Sprintf("route: tile (%d,%d) switch %d is stuck", e.row, e.col, e.sw)
}

// budgetError reports a plan whose optical loss exceeds the budget.
type budgetError struct {
	a, b int
	link phy.LinkReport
}

func (e *budgetError) Error() string {
	return fmt.Sprintf("route: circuit %d<->%d infeasible: %v", e.a, e.b, e.link)
}

// probe reports whether place(req, p) can allocate everything plan p
// needs — endpoints aside, which Establish checks once per request —
// and if not, why. It has no side effects. A free fiber on each trunk
// row, read from the rack, is checked first: full rows are the most
// common rejection and the cheapest to see.
//
//lightpath:hotloop
func (a *Allocator) probe(req Request, p plan) verdict {
	if v := a.probeFibers(p.planKey); v.cause != causeNone {
		return v
	}
	return a.probePath(req, p)
}

// probeFibers is the probe's first check, which needs only the plan's
// key: a free fiber on the fiber row of every trunk crossed.
//
//lightpath:hotloop
func (a *Allocator) probeFibers(k planKey) verdict {
	for i, tr := range k.trunks {
		// A plan crosses each trunk once, but count repeats anyway:
		// every crossing takes its own fiber.
		need := 1
		for _, prev := range k.trunks[:i] {
			if prev == tr {
				need++
			}
		}
		if !a.rack.FibersFree(tr, k.fiberRow, need) {
			return verdict{cause: causeFiber}
		}
	}
	return verdict{}
}

// probePath is the rest of the probe, in report order: severed spans,
// stuck switches, then bus availability. A lane with at least one
// never-touched bus per plan step fits whatever the spans; any other
// lane gets an exact first-fit check that counts the plan's own
// earlier steps on it.
//
//lightpath:hotloop
func (a *Allocator) probePath(req Request, p plan) verdict {
	for i, st := range p.steps {
		if a.rack.Wafer(st.wafer).SpanSevered(st.o, st.lane, st.span) {
			return verdict{cause: causeSevered, step: i}
		}
	}
	for _, su := range a.planSwitches(req, p) {
		if !su.tile.SwitchHealthy(su.sw) {
			return verdict{cause: causeStuck, sw: su}
		}
	}
	// fit[i] is the bus the exact check placed step i on, -1 for steps
	// on lanes with fresh headroom.
	fit := a.scratch.fit[:0]
	for i, st := range p.steps {
		w := a.rack.Wafer(st.wafer)
		if w.FreshBuses(st.o, st.lane) >= len(p.steps) {
			fit = append(fit, -1)
			continue
		}
		pending := a.scratch.pending[:0]
		for j, prev := range p.steps[:i] {
			if fit[j] >= 0 && prev.wafer == st.wafer && prev.o == st.o && prev.lane == st.lane {
				pending = append(pending, wafer.BusRef{Orient: prev.o, Lane: prev.lane, Bus: fit[j], Span: prev.span})
			}
		}
		a.scratch.pending = pending
		bus, ok := w.FirstFitBus(st.o, st.lane, st.span, pending)
		if !ok {
			a.scratch.fit = fit
			return verdict{cause: causeBus, step: i}
		}
		fit = append(fit, bus)
	}
	a.scratch.fit = fit
	return verdict{}
}

// place allocates a plan the probe accepted: buses and fibers
// first-fit, both endpoints, then the switches, and appends the
// circuit. None of it can fail — the probe checked each resource —
// and a failure here is a broken invariant, not a rejected plan.
//
//lightpath:hotloop
func (a *Allocator) place(req Request, p plan, link phy.LinkReport, now unit.Seconds) *Circuit {
	// The path is staged in scratch; setPath copies it into the
	// circuit.
	segs := a.scratch.segs[:0]
	for _, st := range p.steps {
		ref, err := a.rack.Wafer(st.wafer).AllocBus(st.o, st.lane, st.span)
		if err != nil {
			panic(err)
		}
		segs = append(segs, Segment{Wafer: st.wafer, Ref: ref})
	}
	fibers := a.scratch.fibers[:0]
	for _, tr := range p.trunks {
		ref, err := a.rack.AllocFiber(tr, p.fiberRow)
		if err != nil {
			panic(err)
		}
		fibers = append(fibers, ref)
	}
	for _, chip := range [2]int{req.A, req.B} {
		if err := a.reserveEndpoint(chip, req.Width); err != nil {
			panic(err)
		}
	}
	// Programming starts each switch's settle clock, making ReadyAt =
	// now + 3.7 us observable hardware state; the port assignment is
	// cosmetic for the simulation. The probe found every switch
	// healthy, so Program cannot fail.
	for i, su := range a.planSwitches(req, p) {
		port := 1
		if i < 2 {
			// The endpoint switch routes the Tx/Rx block to the bus.
			port = 0
		}
		_ = su.tile.Switches[su.sw].Program(port, now)
	}
	c := &Circuit{
		ID:            a.nextID,
		A:             req.A,
		B:             req.B,
		Width:         req.Width,
		EstablishedAt: now,
		ReadyAt:       now + phy.ReconfigLatency,
		Link:          link,
	}
	c.setPath(segs, fibers)
	a.scratch.segs, a.scratch.fibers = segs[:0], fibers[:0]
	a.nextID++
	a.circuits = append(a.circuits, c)
	return c
}

// Release tears down a circuit and returns its resources. Releasing a
// circuit this allocator does not currently hold — a double release,
// or a circuit belonging to a different allocator — is a no-op:
// fault-driven teardown can race a caller-driven one, and the loser
// must never corrupt the occupancy counts. The identity check is by
// pointer, not ID, so another allocator's circuit with a coinciding ID
// cannot free this allocator's resources.
func (a *Allocator) Release(c *Circuit) {
	i, ok := a.circuitIndex(c.ID)
	if !ok || a.circuits[i] != c {
		return
	}
	a.beginOp()
	defer a.endOp("release")
	a.circuits = slices.Delete(a.circuits, i, i+1)
	for _, s := range c.Segments {
		a.rack.Wafer(s.Wafer).FreeBus(s.Ref)
	}
	for _, f := range c.Fibers {
		a.rack.FreeFiber(f)
	}
	a.releaseEndpoint(c.A, c.Width)
	a.releaseEndpoint(c.B, c.Width)
}

// evaluate computes a plan's optical budget: couplings at the
// endpoints, two MZI stages per switch traversed (endpoints plus one
// switch per turn), one crossing per pass-through tile and per turn
// (the signal crosses the orthogonal bus bundle), one reticle stitch
// per tile boundary, propagation over the Manhattan length, and one
// loss element per fiber hop. It reads only the steps' wafers, lanes
// and spans and the trunk count — never which bus or fiber a step
// would get — so it runs before anything is allocated, and a plan
// the budget rejects leaves nothing to undo.
func (a *Allocator) evaluate(p plan) phy.LinkReport {
	cfg := a.rack.Config()
	// The element list is rebuilt for every plan the probe accepts;
	// reuse the scratch buffer (Budget.Evaluate does not retain it).
	elems := a.scratch.elems[:0]
	elems = append(elems, a.loss.Coupling(), a.loss.Coupling())
	switches := 2 + p.turns
	for i := 0; i < switches; i++ {
		elems = append(elems, a.loss.MZIPass(), a.loss.MZIPass())
	}
	//lightpath:hotloop
	for _, st := range p.steps {
		length := st.span.Hi - st.span.Lo
		for b := 0; b < length; b++ {
			elems = append(elems, a.loss.Stitch())
		}
		if through := length - 1; through > 0 {
			for t := 0; t < through; t++ {
				elems = append(elems, a.loss.Crossing())
			}
		}
		elems = append(elems, a.loss.Propagation(unit.Meters(length)*cfg.TileEdge))
		// Fault-induced degradation on the span (chaos engine's
		// waveguide faults) is charged like any other loss element, so
		// a degraded-but-surviving path is accepted exactly when its
		// budget still closes.
		if extra := a.rack.Wafer(st.wafer).SpanExtraLossDB(st.o, st.lane, st.span); extra > 0 {
			elems = append(elems, phy.LossElement{Kind: phy.LossDefect, DB: unit.Decibel(extra)})
		}
	}
	for t := 0; t < p.turns; t++ {
		elems = append(elems, a.loss.Crossing())
	}
	for range p.trunks {
		elems = append(elems, a.loss.FiberHop())
	}
	a.scratch.elems = elems
	return a.Budget.Evaluate(elems)
}

// switchUse pairs a tile with the switch index a plan programs there.
type switchUse struct {
	tile *wafer.Tile
	sw   int
}

// planSwitches lists the switches a plan needs to program: switch 0 at
// each endpoint tile (facing the Tx/Rx block) and switch 1 at each
// turn tile, where one step ends and the next begins. The probe checks
// them for stuck state; place programs them.
// The returned slice lives in the allocator's scratch and is valid
// only until the next planSwitches call.
func (a *Allocator) planSwitches(req Request, p plan) []switchUse {
	uses := a.scratch.uses[:0]
	uses = append(uses,
		switchUse{tile: a.rack.TileOf(req.A), sw: 0},
		switchUse{tile: a.rack.TileOf(req.B), sw: 0},
	)
	//lightpath:hotloop
	for i := range p.steps {
		if i == 0 {
			continue
		}
		st := p.steps[i]
		var row, col int
		if st.o == wafer.Horizontal {
			row = st.lane
			col = clampToSpan(p.steps[i-1], st)
		} else {
			col = st.lane
			row = clampToSpan(p.steps[i-1], st)
		}
		uses = append(uses, switchUse{tile: a.rack.Wafer(st.wafer).Tile(row, col), sw: 1})
	}
	a.scratch.uses = uses
	return uses
}

// clampToSpan picks the junction coordinate between two consecutive
// steps; when the steps are on different wafers (a fiber hop) the
// junction is the new span's entry edge.
func clampToSpan(prev, cur planStep) int {
	return junction(prev.wafer, prev.lane, cur.wafer, cur.span)
}

// junction is the step-junction rule on primitive fields, shared by
// the plan-time switch listing and the segment-time reconstruction in
// AppendCircuitSwitches: the previous step's lane is a position along the
// current span, clamped to it; a wafer change enters at the span's low
// edge.
func junction(prevWafer, prevLane, curWafer int, curSpan wafer.Interval) int {
	if prevWafer != curWafer {
		return curSpan.Lo
	}
	if prevLane < curSpan.Lo {
		return curSpan.Lo
	}
	if prevLane > curSpan.Hi {
		return curSpan.Hi
	}
	return prevLane
}

// SwitchExpectation pairs a tile with the switch index a circuit's
// path programs there and the port it must be routed to.
type SwitchExpectation struct {
	Tile   *wafer.Tile
	Switch int
	Port   int
}

// AppendCircuitSwitches reconstructs, from a circuit's committed
// segments, the switch programming its path required: switch 0 routed
// to port 0 at each endpoint tile (facing the Tx/Rx block) and switch 1
// routed to port 1 at each turn tile. Segments mirror the committed
// plan's steps one-to-one in path order, so the reconstruction is
// exact; the invariant auditor compares it against the hardware's
// actual switch state. It appends c's expected switch states to dst
// and returns the extended slice, so the audit hot path reuses one
// buffer. An expectation whose tile lies off the rack (an endpoint
// chip, wafer or tile index out of range, which only a corrupted
// circuit can name) is left out rather than panicking, so the auditor
// can reconstruct any circuit it is handed.
func (a *Allocator) AppendCircuitSwitches(dst []SwitchExpectation, c *Circuit) []SwitchExpectation {
	chips, wafers := a.rack.NumChips(), a.rack.NumWafers()
	for _, chip := range [2]int{c.A, c.B} {
		if chip >= 0 && chip < chips {
			dst = append(dst, SwitchExpectation{Tile: a.rack.TileOf(chip), Switch: 0, Port: 0})
		}
	}
	for i := 1; i < len(c.Segments); i++ {
		prev, cur := c.Segments[i-1], c.Segments[i]
		if cur.Wafer < 0 || cur.Wafer >= wafers {
			continue
		}
		var row, col int
		if cur.Ref.Orient == wafer.Horizontal {
			row = cur.Ref.Lane
			col = junction(prev.Wafer, prev.Ref.Lane, cur.Wafer, cur.Ref.Span)
		} else {
			col = cur.Ref.Lane
			row = junction(prev.Wafer, prev.Ref.Lane, cur.Wafer, cur.Ref.Span)
		}
		if t := a.rack.Wafer(cur.Wafer).TileAt(row, col); t != nil {
			dst = append(dst, SwitchExpectation{Tile: t, Switch: 1, Port: 1})
		}
	}
	return dst
}

func (a *Allocator) reserveEndpoint(chip, width int) error {
	return a.rack.TileOf(chip).Reserve(width)
}

func (a *Allocator) releaseEndpoint(chip, width int) {
	a.rack.TileOf(chip).Release(width)
}
