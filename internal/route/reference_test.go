package route

// The reference establish path: the allocate-then-roll-back commit and
// the plan loops that drove it, kept verbatim (bar evaluate's
// signature) so the differential test below can hold the probe/place
// path to exactly the circuits, errors, loss draws and checkpoint
// bytes the rollback path produced.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// referenceEstablish is Establish as it was before the probe: every
// plan goes through commit, which allocates and rolls back.
func (a *Allocator) referenceEstablish(req Request, now unit.Seconds) (*Circuit, error) {
	if req.A == req.B {
		return nil, fmt.Errorf("route: circuit endpoints are the same chip %d", req.A)
	}
	if req.Width <= 0 {
		return nil, fmt.Errorf("route: non-positive width %d", req.Width)
	}
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
	plans := a.candidatePlans(req.A, req.B)
	var lastErr error = ErrNoPath
	for _, p := range plans {
		c, err := a.commit(req, p, now)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, &noPathError{a: req.A, b: req.B, cause: lastErr}
}

// commit attempts to allocate everything a plan needs, rolling back on
// failure.
func (a *Allocator) commit(req Request, p plan, now unit.Seconds) (c *Circuit, err error) {
	a.beginOp()
	defer a.endOp("commit")
	segs := a.scratch.segs[:0]
	fibers := a.scratch.fibers[:0]
	defer func() {
		a.scratch.segs = segs[:0]
		a.scratch.fibers = fibers[:0]
	}()
	reservedA, reservedB := false, false
	defer func() {
		if err == nil {
			return
		}
		for _, s := range segs {
			a.rack.Wafer(s.Wafer).FreeBus(s.Ref)
		}
		for _, f := range fibers {
			a.rack.FreeFiber(f)
			a.trackFiber(f, -1)
		}
		if reservedA {
			a.releaseEndpoint(req.A, req.Width)
		}
		if reservedB {
			a.releaseEndpoint(req.B, req.Width)
		}
	}()

	for _, st := range p.steps {
		if a.rack.Wafer(st.wafer).SpanSevered(st.o, st.lane, st.span) {
			return nil, fmt.Errorf("route: %s lane %d span [%d,%d] on wafer %d crosses a severed segment",
				st.o, st.lane, st.span.Lo, st.span.Hi, st.wafer)
		}
	}
	for _, su := range a.planSwitches(req, p) {
		if !su.tile.SwitchHealthy(su.sw) {
			return nil, fmt.Errorf("route: tile (%d,%d) switch %d is stuck", su.tile.Row, su.tile.Col, su.sw)
		}
	}

	for _, st := range p.steps {
		ref, aerr := a.rack.Wafer(st.wafer).AllocBus(st.o, st.lane, st.span)
		if aerr != nil {
			return nil, aerr
		}
		segs = append(segs, Segment{Wafer: st.wafer, Ref: ref})
	}
	for _, tr := range p.trunks {
		ref, aerr := a.rack.AllocFiber(tr, p.fiberRow)
		if aerr != nil {
			return nil, aerr
		}
		fibers = append(fibers, ref)
		a.trackFiber(ref, +1)
	}
	if err = a.reserveEndpoint(req.A, req.Width); err != nil {
		return nil, err
	}
	reservedA = true
	if err = a.reserveEndpoint(req.B, req.Width); err != nil {
		return nil, err
	}
	reservedB = true

	link := a.evaluate(p)
	if a.CheckBudget && !link.Feasible {
		return nil, fmt.Errorf("route: circuit %d<->%d infeasible: %v", req.A, req.B, link)
	}

	a.referenceProgramSwitches(req, p, now)
	c = &Circuit{
		ID:            a.nextID,
		A:             req.A,
		B:             req.B,
		Width:         req.Width,
		EstablishedAt: now,
		ReadyAt:       now + phy.ReconfigLatency,
		Link:          link,
	}
	c.setPath(segs, fibers)
	a.nextID++
	a.circuits = append(a.circuits, c)
	return c, nil
}

func (a *Allocator) referenceProgramSwitches(req Request, p plan, now unit.Seconds) {
	for i, su := range a.planSwitches(req, p) {
		port := 1
		if i < 2 {
			port = 0
		}
		_ = su.tile.Switches[su.sw].Program(port, now)
	}
}

// referenceEstablishBatch is the centralized batch over
// referenceEstablish.
func (a *Allocator) referenceEstablishBatch(reqs []Request, now unit.Seconds) BatchOutcome {
	out := BatchOutcome{Rounds: 1}
	for _, req := range reqs {
		out.Attempts++
		c, err := a.referenceEstablish(req, now)
		if err != nil {
			out.Failed = append(out.Failed, req)
			continue
		}
		out.Circuits = append(out.Circuits, c)
	}
	return out
}

// referenceEstablishBatch is the decentralized batch with every
// proposal going through commit.
func (d *Decentralized) referenceEstablishBatch(reqs []Request, now unit.Seconds) BatchOutcome {
	type pending struct {
		req       Request
		candidate int
	}
	var queue []pending
	for _, r := range reqs {
		queue = append(queue, pending{req: r})
	}

	var out BatchOutcome
	for round := 0; round < d.MaxRounds && len(queue) > 0; round++ {
		out.Rounds++
		type proposal struct {
			pending
			plan plan
			ok   bool
		}
		proposals := make([]proposal, len(queue))
		for i, p := range queue {
			plans := d.Alloc.candidatePlans(p.req.A, p.req.B)
			if p.candidate < len(plans) {
				proposals[i] = proposal{pending: p, plan: plans[p.candidate].clone(), ok: true}
			} else {
				proposals[i] = proposal{pending: p}
			}
		}
		order := make([]int, len(proposals))
		for i := range order {
			order[i] = i
		}
		if d.rand != nil {
			d.rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var next []pending
		for _, i := range order {
			pr := proposals[i]
			if !pr.ok {
				out.Failed = append(out.Failed, pr.req)
				continue
			}
			out.Attempts++
			c, err := d.Alloc.commit(pr.req, pr.plan, now)
			if err != nil {
				next = append(next, pending{req: pr.req, candidate: pr.candidate + 1})
				continue
			}
			out.Circuits = append(out.Circuits, c)
		}
		queue = next
	}
	for _, p := range queue {
		out.Failed = append(out.Failed, p.req)
	}
	return out
}

// lockstepSentinels are the errors whose errors.Is verdicts the
// production and reference paths must agree on.
var lockstepSentinels = []error{
	ErrNoPath, ErrEndpointFailed,
	wafer.ErrFibersExhausted, wafer.ErrLasersExhausted, wafer.ErrPortsExhausted,
}

// lockstep drives a production allocator and a reference one over
// identical hardware with the same seeded operation stream.
type lockstep struct {
	t         testing.TB
	prod, ref *Allocator
	// live holds the established circuits as (production, reference)
	// pairs.
	live [][2]*Circuit
	// ops counts the operations applied, for failure messages.
	ops int
	// seen tallies the establish outcomes by cause, so a sweep can
	// check it reached every failure it claims to cover.
	seen map[string]int
}

// lockstepParams fixes one fabric: topology, size, resource budgets
// and the allocator policies. The small budgets push the fabric into
// bus, fiber and endpoint exhaustion within a few dozen circuits.
type lockstepParams struct {
	topo        wafer.Topology
	wafers      int
	cfg         wafer.Config
	checkBudget bool
	pack        bool
	budget      phy.Budget
}

// drawLockstepParams derives a fabric from a seed and a flag byte:
// bit 0 ring, bit 1 CheckBudget, bit 2 PackFibers, bit 3 the paper's
// full-size lanes instead of a handful of buses.
func drawLockstepParams(seed uint64, flags uint8) lockstepParams {
	r := rng.New(seed).Split("lockstep/params")
	cfg := wafer.DefaultConfig()
	cfg.Rows = 2 + r.Intn(3)
	cfg.Cols = 2 + r.Intn(4)
	cfg.LasersPerTile = 2 + r.Intn(7)
	cfg.SerDesPortsPerTile = 1 + r.Intn(4)
	cfg.FibersPerEdge = r.Intn(4)
	if flags&8 == 0 {
		cfg.BusesPerLane = 1 + r.Intn(4)
	}
	p := lockstepParams{
		topo:        wafer.Chain,
		wafers:      1 + r.Intn(4),
		cfg:         cfg,
		checkBudget: flags&2 != 0,
		pack:        flags&4 != 0,
		budget:      phy.DefaultBudget(),
	}
	if flags&1 != 0 {
		p.topo = wafer.RingTopology
		p.wafers = 2 + r.Intn(3)
	}
	// A launch power from 0 to 10 dBm: at the low end the budget turns
	// down long or degraded paths.
	p.budget.LaunchPower = unit.DBm(r.Intn(11))
	return p
}

func newLockstep(t testing.TB, seed uint64, p lockstepParams) *lockstep {
	t.Helper()
	build := func() *Allocator {
		rack, err := wafer.NewRackTopology(p.cfg, p.wafers, p.topo)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAllocator(rack, rng.New(seed).Split("lockstep/loss"))
		a.CheckBudget = p.checkBudget
		a.PackFibers = p.pack
		a.Budget = p.budget
		return a
	}
	return &lockstep{t: t, prod: build(), ref: build(), seen: map[string]int{}}
}

// fatalf reports a divergence with the operation count.
func (ls *lockstep) fatalf(format string, args ...any) {
	ls.t.Helper()
	ls.t.Fatalf("op %d: "+format, append([]any{ls.ops}, args...)...)
}

// sameOutcome demands the two paths returned the same circuit (deep
// equal: ID, endpoints, segments with bus indices, fibers, Link,
// timing) and the same error, rendered and under errors.Is.
func (ls *lockstep) sameOutcome(what string, pc, rc *Circuit, perr, rerr error) {
	ls.t.Helper()
	if (pc == nil) != (rc == nil) || (pc != nil && !reflect.DeepEqual(*pc, *rc)) {
		ls.fatalf("%s: circuit\n  prod %+v\n  ref  %+v", what, pc, rc)
	}
	if errString(perr) != errString(rerr) {
		ls.fatalf("%s: error\n  prod %q\n  ref  %q", what, errString(perr), errString(rerr))
	}
	for _, s := range lockstepSentinels {
		if errors.Is(perr, s) != errors.Is(rerr, s) {
			ls.fatalf("%s: errors.Is(%v) prod %v ref %v", what, s, errors.Is(perr, s), errors.Is(rerr, s))
		}
	}
}

// sameState demands equal loss-stream positions and byte-identical
// checkpoints.
func (ls *lockstep) sameState() {
	ls.t.Helper()
	ps, pok := ls.prod.loss.RandState()
	rs, rok := ls.ref.loss.RandState()
	if ps != rs || pok != rok {
		ls.fatalf("loss stream diverged: prod %v ref %v", ps, rs)
	}
	var pe, re snapshot.Encoder
	ls.prod.EncodeState(&pe)
	ls.ref.EncodeState(&re)
	if !bytes.Equal(pe.Bytes(), re.Bytes()) {
		ls.fatalf("checkpoint bytes diverged (%d vs %d bytes)", len(pe.Bytes()), len(re.Bytes()))
	}
}

// dropLive removes the released circuits (by ID) from the live set,
// after checking both sides released the same ones.
func (ls *lockstep) dropLive(what string, prod, ref []*Circuit) {
	ls.t.Helper()
	if len(prod) != len(ref) {
		ls.fatalf("%s: released %d vs %d circuits", what, len(prod), len(ref))
	}
	for i := range prod {
		if prod[i].ID != ref[i].ID {
			ls.fatalf("%s: released circuit %d vs %d", what, prod[i].ID, ref[i].ID)
		}
		for j, pair := range ls.live {
			if pair[0].ID == prod[i].ID {
				ls.live = append(ls.live[:j], ls.live[j+1:]...)
				break
			}
		}
	}
}

// request draws a circuit request; same-chip requests appear only
// where allowSame is set (the decentralized batch accepts them).
func (ls *lockstep) request(r *rng.Rand, allowSame bool) Request {
	chips := ls.prod.rack.NumChips()
	req := Request{A: r.Intn(chips), B: r.Intn(chips), Width: 1 + r.Intn(4)}
	for !allowSame && req.A == req.B && chips > 1 {
		req.B = r.Intn(chips)
	}
	return req
}

// step applies one random operation to both allocators and checks
// the outcomes and the resulting state.
func (ls *lockstep) step(r *rng.Rand) {
	ls.t.Helper()
	ls.ops++
	prod, ref := ls.prod, ls.ref
	now := unit.Seconds(ls.ops) * unit.Microsecond
	rack := prod.rack
	switch op := r.Intn(100); {
	case op < 45:
		req := ls.request(r, r.Intn(50) == 0)
		pc, perr := prod.Establish(req, now)
		rc, rerr := ref.referenceEstablish(req, now)
		ls.sameOutcome(fmt.Sprintf("establish %+v", req), pc, rc, perr, rerr)
		ls.seen[outcomeCause(rerr)]++
		if pc != nil {
			ls.live = append(ls.live, [2]*Circuit{pc, rc})
		}

	case op < 65:
		if len(ls.live) == 0 {
			break
		}
		i := r.Intn(len(ls.live))
		pair := ls.live[i]
		ls.live = append(ls.live[:i], ls.live[i+1:]...)
		prod.Release(pair[0])
		ref.Release(pair[1])

	case op < 75:
		reqs := make([]Request, 1+r.Intn(6))
		decentral := r.Intn(2) == 0
		for i := range reqs {
			reqs[i] = ls.request(r, decentral)
		}
		var po, ro BatchOutcome
		if decentral {
			shuffle := r.Uint64()
			po = NewDecentralized(prod, rng.New(shuffle)).EstablishBatch(reqs, now)
			ro = NewDecentralized(ref, rng.New(shuffle)).referenceEstablishBatch(reqs, now)
		} else {
			po = prod.EstablishBatch(reqs, now)
			ro = ref.referenceEstablishBatch(reqs, now)
		}
		if len(po.Circuits) != len(ro.Circuits) || !reflect.DeepEqual(po.Failed, ro.Failed) ||
			po.Attempts != ro.Attempts || po.Rounds != ro.Rounds {
			ls.fatalf("batch (decentralized %v) %+v: outcome\n  prod %+v\n  ref  %+v", decentral, reqs, po, ro)
		}
		for i := range po.Circuits {
			ls.sameOutcome("batch circuit", po.Circuits[i], ro.Circuits[i], nil, nil)
			ls.live = append(ls.live, [2]*Circuit{po.Circuits[i], ro.Circuits[i]})
		}

	case op < 87:
		f := chaos.Fault{Class: chaos.Class(r.Intn(chaos.NumClasses))}
		switch f.Class {
		case chaos.LaserDeath, chaos.MZIStuck, chaos.ChipFailure:
			f.Chip = r.Intn(rack.NumChips())
			f.Switch = r.Intn(wafer.SwitchesPerTile)
		case chaos.WaveguideLoss:
			f.Wafer = r.Intn(rack.NumWafers())
			f.Horizontal = r.Intn(2) == 0
			if f.Horizontal {
				f.Lane = r.Intn(rack.Config().Rows)
				f.Pos = r.Intn(rack.Config().Cols)
			} else {
				f.Lane = r.Intn(rack.Config().Cols)
				f.Pos = r.Intn(rack.Config().Rows)
			}
			f.ExtraLossDB = float64(r.Intn(25))
		case chaos.FiberCut:
			if rack.NumTrunks() == 0 {
				return
			}
			f.Trunk = r.Intn(rack.NumTrunks())
			f.Row = r.Intn(rack.Config().Rows)
		}
		pb, perr := prod.ApplyFault(f)
		rb, rerr := ref.ApplyFault(f)
		ls.sameOutcome(fmt.Sprintf("fault %v", f), nil, nil, perr, rerr)
		ls.dropLive(fmt.Sprintf("fault %v", f), pb, rb)

	case op < 94:
		if rack.NumTrunks() == 0 {
			return
		}
		trunk, row := r.Intn(rack.NumTrunks()), r.Intn(rack.Config().Rows)
		ls.dropLive("fail-row", prod.FailFiberRow(trunk, row), ref.FailFiberRow(trunk, row))

	default:
		if rack.NumTrunks() == 0 {
			return
		}
		trunk, row := r.Intn(rack.NumTrunks()), r.Intn(rack.Config().Rows)
		prod.RestoreFiberRow(trunk, row)
		ref.RestoreFiberRow(trunk, row)
	}
	ls.sameState()
}

// runLockstep plays ops random operations on one fabric and returns
// the establish outcomes it saw, by cause.
func runLockstep(t testing.TB, seed uint64, flags uint8, ops int) map[string]int {
	t.Helper()
	ls := newLockstep(t, seed, drawLockstepParams(seed, flags))
	r := rng.New(seed).Split("lockstep/ops")
	for i := 0; i < ops; i++ {
		ls.step(r)
	}
	return ls.seen
}

// outcomeCause names an establish outcome by the cause it reports.
func outcomeCause(err error) string {
	var lane *wafer.LaneExhaustedError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrEndpointFailed):
		return "dead-endpoint"
	case errors.Is(err, wafer.ErrFibersExhausted):
		return "fiber"
	case errors.Is(err, wafer.ErrLasersExhausted):
		return "lasers"
	case errors.Is(err, wafer.ErrPortsExhausted):
		return "ports"
	case errors.As(err, &lane):
		return "bus"
	case strings.Contains(err.Error(), "severed"):
		return "severed"
	case strings.Contains(err.Error(), "stuck"):
		return "stuck"
	case strings.Contains(err.Error(), "infeasible"):
		return "budget"
	}
	return "other"
}

// errString folds an error to a comparable string ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEstablishMatchesReference holds the probe/place establish path
// to the rollback path it replaced, op for op, over every combination
// of topology, budget checking, fiber packing and lane size, on
// fabrics small enough to run out of buses, fibers, lasers and ports.
// The sweep must reach every cause a failed establish can report.
func TestEstablishMatchesReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	seen := map[string]int{}
	for flags := uint8(0); flags < 16; flags++ {
		for s := 0; s < seeds; s++ {
			seed := uint64(flags)*1000 + uint64(s)
			t.Run(fmt.Sprintf("flags%02d/seed%d", flags, s), func(t *testing.T) {
				for cause, n := range runLockstep(t, seed, flags, 300) {
					seen[cause] += n
				}
			})
		}
	}
	for _, want := range []string{"ok", "dead-endpoint", "fiber", "lasers", "ports", "bus", "severed", "stuck", "budget"} {
		if seen[want] == 0 {
			t.Errorf("the lockstep sweep never reported a %q outcome (saw %v)", want, seen)
		}
	}
}

// FuzzEstablishMatchesReference runs the lockstep differential from
// fuzzed seeds and fabric flags.
func FuzzEstablishMatchesReference(f *testing.F) {
	for flags := uint8(0); flags < 16; flags++ {
		f.Add(uint64(flags)*7919+1, flags)
	}
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		runLockstep(t, seed, flags&15, 150)
	})
}
