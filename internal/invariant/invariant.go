// Package invariant is a cross-layer runtime auditor for the shared
// optical state of a rack: it re-derives, from first principles, what
// the wafer hardware state (occupancy, health, cut fiber rows) and the
// established circuit table must agree on, and reports structured
// Violations when they do not. The checks are the executable form of
// DESIGN.md's disjointness and conservation invariants — no
// double-booked lasers, waveguide buses or fiber lanes; endpoint
// reservations balancing the sum of circuit widths; every active
// circuit within its loss budget and traversing only healthy
// components; switch programming consistent with circuit segments.
//
// The auditor attaches to a route.Allocator via its audit hook. In
// Paranoid mode it runs a full pass of the registry after every
// completed top-level mutation. In Sampled mode it audits every
// DefaultStride-th mutation, and most of those audits are delta
// audits: they check only the circuits established or released since
// the previous audit, against an index of the live circuits the
// auditor keeps. Every full pass rebuilds that index, and it is the
// one structure that decides disjointness: a clean rebuild proves that
// no two circuits share a bus position or a fiber, and only a failed
// one runs the sort-and-sweep reporter that names the sharing pairs.
// Every 16th sampled audit is a full pass, and so is the next one
// after a mutation other than an establish or a release (a fault or a
// repair), after an audit that found violations, after RestoreState,
// and whenever the circuit table is out of ID order or holds a key off
// the rack. A delta that finds anything amiss hands over to a full
// pass on the same state, so it reports exactly what the full registry
// does. The auditor never panics and never mutates the state it
// audits: violations are recorded on the auditor, whose owner reports
// them, so the simulation can keep running while the defect is
// reported.
package invariant

import (
	"errors"
	"fmt"

	"lightpath/internal/phy"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// ErrViolated is the sentinel wrapped by every error the auditor
// surfaces; errors.Is(err, ErrViolated) identifies invariant failures
// from cmd/ down.
var ErrViolated = errors.New("invariant: state invariant violated")

// Mode selects how often an attached auditor runs the full registry.
type Mode int

// Audit modes.
const (
	// Off disables auditing entirely; the hook is not even attached.
	Off Mode = iota
	// Sampled audits every DefaultStride-th mutation — cheap enough
	// for hot paths while still catching persistent corruption. Of
	// every 16 sampled audits, up to 15 are delta audits, which check
	// only the circuits added or removed since the previous audit; the
	// rest are full passes (see the package comment for when a delta
	// falls back to one).
	Sampled
	// Paranoid audits after every completed top-level mutation
	// (Establish, Release, ApplyFault, EstablishDegraded, Repair). All
	// tests run in this mode, except that cmd/lightpath-sim's
	// full-scale campaign replays drop to Sampled under -race to stay
	// inside the race detector's time budget.
	Paranoid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Sampled:
		return "sampled"
	case Paranoid:
		return "paranoid"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Violation is one structured invariant failure: which registered
// invariant broke, after which mutation, and a human-readable detail
// naming the offending component or circuit.
type Violation struct {
	Invariant string
	Op        string
	Detail    string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	if v.Op == "" {
		return v.Invariant + ": " + v.Detail
	}
	return fmt.Sprintf("%s (after %s): %s", v.Invariant, v.Op, v.Detail)
}

// Invariant is one registered cross-layer check. Check returns a
// detail string per failure; the auditor stamps the invariant name
// and triggering operation onto the resulting Violations.
type Invariant struct {
	// Name is the stable identifier used in Violations and DESIGN.md.
	Name string
	// Doc states what must hold, in one sentence.
	Doc string
	// Check audits a consistent (not mid-mutation) allocator.
	Check func(a *route.Allocator) []string
}

// Registry positions; checkCtx.out is indexed by them.
const (
	disjointness = iota
	busConservation
	fiberConservation
	endpointConservation
	budgetHealth
	switchConsistency
	numInvariants
)

// registry is ordered from structural to semantic checks; it is
// immutable after init. Every Check is a view onto the same audit
// pass (checkCtx.audit): it runs the pass on a throwaway context and
// returns its own invariant's details.
var registry = []Invariant{
	disjointness: {
		Name:  "circuit-disjointness",
		Doc:   "established circuits have positive width and share no bus segment or fiber pairwise",
		Check: view(disjointness),
	},
	busConservation: {
		Name:  "bus-conservation",
		Doc:   "every circuit segment's exact span is allocated on its bus, and the rack's allocated span count equals the circuits' segment count",
		Check: view(busConservation),
	},
	fiberConservation: {
		Name:  "fiber-conservation",
		Doc:   "every circuit fiber is occupied in the rack, and the rack's occupied-fiber count equals the circuits' fiber count in total and on every trunk row",
		Check: view(fiberConservation),
	},
	endpointConservation: {
		Name:  "endpoint-conservation",
		Doc:   "each tile's reserved lasers and SerDes ports equal the sum of circuit widths and endpoint count terminating there, and never exceed capacity",
		Check: view(endpointConservation),
	},
	budgetHealth: {
		Name:  "budget-health",
		Doc:   "active circuits terminate at healthy chips on the rack, cross no severed span or failed fiber row, settle one reconfiguration latency after establishment, and (when budget checking is on) still close their optical budget",
		Check: view(budgetHealth),
	},
	switchConsistency: {
		Name:  "switch-consistency",
		Doc:   "the hardware switch ports match the programming each circuit's segments require (endpoint switch 0 to port 0, turn switch 1 to port 1)",
		Check: view(switchConsistency),
	},
}

// view is invariant i's public Check: one audit pass on a fresh
// context, returning that invariant's details.
func view(i int) func(a *route.Allocator) []string {
	return func(a *route.Allocator) []string {
		var ctx checkCtx
		ctx.audit(a)
		return ctx.out[i]
	}
}

// checkCtx is the reusable working storage of one audit pass: the
// circuit list, per-invariant detail buffers, the tallies, the live
// index and the disjointness reporter's sort buffers. An attached
// Auditor keeps one across audits so the steady-state audit stops
// allocating; the public registry builds a throwaway one per Check
// call.
type checkCtx struct {
	circuits []*route.Circuit
	switches []route.SwitchExpectation
	// out holds each invariant's details, indexed by registry
	// position, in the order that invariant reports them.
	out [numInvariants][]string
	// geo is the audited rack's geometry, read once per pass.
	geo geometry
	// t is what the indexed circuits account for: a full pass's, kept
	// up to date by each delta audit.
	t tally
	// idx decides disjointness (delta.go); segs and fibs are the
	// reporter's sort buffers (sweep.go).
	idx  liveIndex
	segs []segOwner
	fibs []fibOwner
}

// geometry is the rack dimensions an audit indexes by.
type geometry struct {
	wafers, chips, trunks, rows, cols, buses, fibersPerRow int
}

// tally is what a set of circuits accounts for: bus segments and
// fibers held, fibers per trunk row (trunk*rows + row), and lasers and
// SerDes ports per chip.
type tally struct {
	segments, fibers      int
	perRow, lasers, ports []int
}

// reset zeroes the tally for the geometry.
func (t *tally) reset(g geometry) {
	t.segments, t.fibers = 0, 0
	t.perRow = grownZeroed(t.perRow, g.trunks*g.rows)
	t.lasers = grownZeroed(t.lasers, g.chips)
	t.ports = grownZeroed(t.ports, g.chips)
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

// begin starts a pass over a: it snapshots the ID-ordered circuit
// table, empties the detail buffers and reads the geometry.
func (ctx *checkCtx) begin(a *route.Allocator) {
	ctx.circuits = a.AppendCircuits(ctx.circuits[:0])
	for i := range ctx.out {
		ctx.out[i] = ctx.out[i][:0]
	}
	rack := a.Rack()
	cfg := rack.Config()
	ctx.geo = geometry{wafers: rack.NumWafers(), chips: rack.NumChips(), trunks: rack.NumTrunks(),
		rows: cfg.Rows, cols: cfg.Cols, buses: cfg.BusesPerLane, fibersPerRow: cfg.FibersPerEdge}
}

// clean reports whether the pass has found nothing so far.
func (ctx *checkCtx) clean() bool {
	for _, details := range ctx.out {
		if len(details) > 0 {
			return false
		}
	}
	return true
}

// audit runs every invariant over a in one pass. A single walk over
// the ID-ordered circuit table does each circuit's checks and tallies;
// the rack-wide totals follow. Then the live index is rebuilt from the
// table: a clean rebuild proves the circuits disjoint, and only a
// failed one runs the reporter that names the sharing pairs.
// Corrupted indices never panic: a segment on a wafer off the rack is
// an unallocated span, an endpoint off the rack is a budget-health
// violation, and every other check skips that element.
func (ctx *checkCtx) audit(a *route.Allocator) {
	ctx.begin(a)
	out := &ctx.out
	rack := a.Rack()
	g := ctx.geo
	ctx.t.reset(g)
	//lightpath:hotloop
	for _, c := range ctx.circuits {
		ctx.check(a, c)
	}

	allocated := 0
	for w := 0; w < g.wafers; w++ {
		allocated += rack.Wafer(w).AllocatedSpans()
	}
	if allocated != ctx.t.segments {
		out[busConservation] = append(out[busConservation], fmt.Sprintf("rack holds %d allocated bus spans but circuits account for %d (leak or double free)", allocated, ctx.t.segments))
	}
	if used := rack.FibersInUse(); used != ctx.t.fibers {
		out[fiberConservation] = append(out[fiberConservation], fmt.Sprintf("rack holds %d occupied fibers but circuits account for %d (leak or double free)", used, ctx.t.fibers))
	}
	for trunk := 0; trunk < g.trunks; trunk++ {
		for row := 0; row < g.rows; row++ {
			if got, want := rack.FibersInRow(trunk, row), ctx.t.perRow[trunk*g.rows+row]; got != want {
				out[fiberConservation] = append(out[fiberConservation], fmt.Sprintf("rack says trunk %d row %d uses %d fibers, circuits use %d", trunk, row, got, want))
			}
		}
	}
	for chip := 0; chip < g.chips; chip++ {
		t := rack.TileOf(chip)
		if got := t.UsedLasers(); got != ctx.t.lasers[chip] {
			out[endpointConservation] = append(out[endpointConservation], fmt.Sprintf("chip %d tile (%d,%d) reserves %d lasers but circuit widths sum to %d", chip, t.Row, t.Col, got, ctx.t.lasers[chip]))
		}
		if got := t.UsedPorts(); got != ctx.t.ports[chip] {
			out[endpointConservation] = append(out[endpointConservation], fmt.Sprintf("chip %d tile (%d,%d) reserves %d SerDes ports but %d circuits terminate there", chip, t.Row, t.Col, got, ctx.t.ports[chip]))
		}
		if t.FreeLasers() < 0 {
			out[endpointConservation] = append(out[endpointConservation], fmt.Sprintf("chip %d tile (%d,%d) is over-committed: %d free lasers", chip, t.Row, t.Col, t.FreeLasers()))
		}
		if t.FreePorts() < 0 {
			out[endpointConservation] = append(out[endpointConservation], fmt.Sprintf("chip %d tile (%d,%d) is over-committed: %d free SerDes ports", chip, t.Row, t.Col, t.FreePorts()))
		}
	}
	if !ctx.idx.rebuild(ctx.circuits, g) {
		out[disjointness] = ctx.sweepSegments(out[disjointness])
		out[disjointness] = ctx.sweepFibers(out[disjointness])
	}
}

// check runs c's per-circuit checks, appending what fails to ctx.out,
// and adds what c holds to ctx.t. The full walk runs it on every
// circuit, a delta audit on the circuits added since the last one.
//
//lightpath:hotloop
func (ctx *checkCtx) check(a *route.Allocator, c *route.Circuit) {
	out := &ctx.out
	t := &ctx.t
	rack := a.Rack()
	g := ctx.geo
	if c.Width < 1 {
		out[disjointness] = append(out[disjointness], fmt.Sprintf("circuit %d has non-positive width %d", c.ID, c.Width))
	}
	for _, ep := range [2]int{c.A, c.B} {
		if ep < 0 || ep >= g.chips {
			out[budgetHealth] = append(out[budgetHealth], fmt.Sprintf("circuit %d terminates at chip %d, off the rack", c.ID, ep))
			continue
		}
		t.lasers[ep] += c.Width
		t.ports[ep]++
		if !rack.TileOf(ep).ChipHealthy() {
			out[budgetHealth] = append(out[budgetHealth], fmt.Sprintf("circuit %d terminates at failed chip %d", c.ID, ep))
		}
	}
	t.segments += len(c.Segments)
	for _, s := range c.Segments {
		var w *wafer.Wafer
		if s.Wafer >= 0 && s.Wafer < g.wafers {
			w = rack.Wafer(s.Wafer)
		}
		if w == nil || !w.BusSpanAllocated(s.Ref) {
			out[busConservation] = append(out[busConservation], fmt.Sprintf("circuit %d segment %v is not allocated in the lane occupancy", c.ID, s))
		}
		if w != nil && w.SpanSevered(s.Ref.Orient, s.Ref.Lane, s.Ref.Span) {
			out[budgetHealth] = append(out[budgetHealth], fmt.Sprintf("circuit %d crosses severed segment %v", c.ID, s))
		}
	}
	t.fibers += len(c.Fibers)
	for _, f := range c.Fibers {
		if !rack.FiberAllocated(f) {
			out[fiberConservation] = append(out[fiberConservation], fmt.Sprintf("circuit %d fiber %v is not occupied in the rack", c.ID, f))
		}
		if f.Trunk >= 0 && f.Trunk < g.trunks && f.Row >= 0 && f.Row < g.rows {
			t.perRow[f.Trunk*g.rows+f.Row]++
		}
		if rack.FiberRowCut(f.Trunk, f.Row) {
			out[budgetHealth] = append(out[budgetHealth], fmt.Sprintf("circuit %d uses cut fiber row (trunk %d, row %d)", c.ID, f.Trunk, f.Row))
		}
	}
	if !unit.ApproxEqual(c.ReadyAt, c.EstablishedAt+phy.ReconfigLatency) {
		out[budgetHealth] = append(out[budgetHealth], fmt.Sprintf("circuit %d ready at %v, not one reconfiguration latency after %v", c.ID, c.ReadyAt, c.EstablishedAt))
	}
	// Without budget checking the allocator legitimately admits
	// margin-negative circuits, so feasibility is only an invariant
	// when the allocator itself enforces it.
	if a.CheckBudget && !a.StillFeasible(c) {
		out[budgetHealth] = append(out[budgetHealth], fmt.Sprintf("circuit %d no longer closes its optical budget (margin %v, degradation since establish exceeds it)", c.ID, c.Link.MarginDB))
	}
	ctx.switches = a.AppendCircuitSwitches(ctx.switches[:0], c)
	for _, se := range ctx.switches {
		if got := se.Tile.Switches[se.Switch].Port(); got != se.Port {
			out[switchConsistency] = append(out[switchConsistency], fmt.Sprintf("circuit %d needs tile (%d,%d) switch %d on port %d, hardware says port %d",
				c.ID, se.Tile.Row, se.Tile.Col, se.Switch, se.Port, got))
		}
	}
}
