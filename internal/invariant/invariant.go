// Package invariant is a cross-layer runtime auditor for the shared
// optical state of a rack: it re-derives, from first principles, what
// the wafer hardware occupancy, the route allocator's mirrors, and the
// established circuit table must agree on, and reports structured
// Violations when they do not. The checks are the executable form of
// DESIGN.md's disjointness and conservation invariants — no
// double-booked lasers, waveguide buses or fiber lanes; endpoint
// reservations balancing the sum of circuit widths; every active
// circuit within its loss budget and traversing only healthy
// components; switch programming consistent with circuit segments.
//
// The auditor attaches to a route.Allocator via its audit hook and
// runs after every completed top-level mutation (Paranoid mode) or
// every few mutations (Sampled mode). It never panics and never
// mutates the state it audits: violations are recorded on the auditor
// (and tallied globally for test harnesses) so the simulation can
// keep running while the defect is reported.
package invariant

import (
	"errors"
	"fmt"

	"lightpath/internal/phy"
	"lightpath/internal/route"
	"lightpath/internal/unit"
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
	// for hot paths while still catching persistent corruption.
	Sampled
	// Paranoid audits after every completed top-level mutation
	// (Establish, Release, ApplyFault, Reestablish, fiber-row
	// fail/restore). All tests run in this mode, except that
	// cmd/lightpath-sim's full-scale campaign replays drop to Sampled
	// under -race to stay inside the race detector's time budget.
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

// registry is ordered from structural to semantic checks; it is
// immutable after init. Each public Check builds a private scratch
// context per call; the Auditor's audit loop shares one context
// across checks and audits instead (see checks and Auditor.run).
var registry = []Invariant{
	{
		Name:  "circuit-disjointness",
		Doc:   "established circuits have positive width and share no bus segment or fiber pairwise",
		Check: standalone(checkDisjointness),
	},
	{
		Name:  "bus-conservation",
		Doc:   "every circuit segment's exact span is allocated on its bus, and the rack's allocated span count equals the circuits' segment count",
		Check: standalone(checkBusConservation),
	},
	{
		Name:  "fiber-conservation",
		Doc:   "every circuit fiber is occupied in the rack, the rack's occupied-fiber count equals the circuits' fiber count, and the allocator's per-row mirror matches",
		Check: standalone(checkFiberConservation),
	},
	{
		Name:  "endpoint-conservation",
		Doc:   "each tile's reserved lasers and SerDes ports equal the sum of circuit widths and endpoint count terminating there, and never exceed capacity",
		Check: standalone(checkEndpointConservation),
	},
	{
		Name:  "budget-health",
		Doc:   "active circuits terminate at healthy chips, cross no severed span or failed fiber row, settle one reconfiguration latency after establishment, and (when budget checking is on) still close their optical budget",
		Check: standalone(checkBudgetHealth),
	},
	{
		Name:  "switch-consistency",
		Doc:   "the hardware switch ports match the programming each circuit's segments require (endpoint switch 0 to port 0, turn switch 1 to port 1)",
		Check: standalone(checkSwitchConsistency),
	},
}

// checks mirrors registry order with the scratch-context check
// functions the Auditor calls directly.
var checks = []func(a *route.Allocator, ctx *checkCtx) []string{
	checkDisjointness,
	checkBusConservation,
	checkFiberConservation,
	checkEndpointConservation,
	checkBudgetHealth,
	checkSwitchConsistency,
}

// Registry returns the registered invariants in audit order. The
// returned slice is shared; callers must not modify it.
func Registry() []Invariant { return registry }

// checkCtx is the reusable working storage of one audit pass: the
// sorted circuit list every check walks, plus per-check sort and
// tally buffers. An attached Auditor keeps one across audits so the
// steady-state audit loop stops allocating; the public registry
// builds a throwaway one per Check call.
type checkCtx struct {
	circuits []*route.Circuit
	switches []route.SwitchExpectation
	// keys holds the disjointness sweep's packed sort keys; segs and
	// fibs serve its comparator fallback (see sweep.go).
	keys   []uint64
	segs   []segOwner
	fibs   []fibOwner
	perRow []int
	lasers []int
	ports  []int
}

// load refreshes the sorted circuit list from the allocator.
func (ctx *checkCtx) load(a *route.Allocator) {
	ctx.circuits = a.AppendCircuits(ctx.circuits[:0])
}

// standalone adapts a scratch-context check to the public Check
// signature, building a fresh context per call.
func standalone(check func(a *route.Allocator, ctx *checkCtx) []string) func(a *route.Allocator) []string {
	return func(a *route.Allocator) []string {
		var ctx checkCtx
		ctx.load(a)
		return check(a, &ctx)
	}
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
			if got, want := a.FiberRowUsage(trunk, row), ctx.perRow[trunk*rows+row]; got != want {
				out = append(out, fmt.Sprintf("allocator mirror says trunk %d row %d uses %d fibers, circuits use %d", trunk, row, got, want))
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
			if a.RowFailed(f.Trunk, f.Row) {
				out = append(out, fmt.Sprintf("circuit %d uses cut fiber row (trunk %d, row %d)", c.ID, f.Trunk, f.Row))
			}
		}
		if !unit.ApproxEqual(c.ReadyAt, c.EstablishedAt+phy.ReconfigLatency) {
			out = append(out, fmt.Sprintf("circuit %d ready at %v, not one reconfiguration latency after %v", c.ID, c.ReadyAt, c.EstablishedAt))
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
