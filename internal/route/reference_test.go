package route

// The reference establish path: the allocate-then-roll-back commit,
// the plan loops that drove it and the eager plan enumerator that fed
// them, kept verbatim (bar evaluate's signature and the enumerator's
// buffers) so the differential test below can hold the probe/place
// path and its lazy plan generator to exactly the circuits, errors,
// loss draws and checkpoint bytes the rollback path produced. The
// degradation ladder that halved after every failure is kept beside
// them, so the same test holds EstablishDegraded's halving rule to it,
// and so is the link budget that built each circuit's loss element
// list and summed it, which holds evaluate's running tally to the
// list's bits.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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
	plans := a.referencePlans(req.A, req.B)
	var lastErr error = ErrNoPath
	for _, p := range plans {
		c, err := a.commit(req, p, now)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, newNoPathError(req, lastErr)
}

// referenceEstablishDegraded is the degradation ladder before the
// halving rule: every failure but a dead endpoint is retried at half
// the width, down to width 1.
func (a *Allocator) referenceEstablishDegraded(req Request, now unit.Seconds) (*Circuit, bool, error) {
	var lastErr error
	for width := req.Width; width >= 1; width /= 2 {
		c, err := a.referenceEstablish(Request{A: req.A, B: req.B, Width: width}, now)
		if err == nil {
			return c, width < req.Width, nil
		}
		lastErr = err
		if errors.Is(err, ErrEndpointFailed) {
			break
		}
	}
	return nil, false, lastErr
}

// referencePlans enumerates paths between two chips in preference
// order, every plan built up front: for each candidate fiber row
// (same-wafer circuits have none), the horizontal-first and
// vertical-first L-shapes. It is the enumerator Establish used before
// plans were generated as keys, writing into fresh slices instead of
// the scratch.
func (a *Allocator) referencePlans(chipA, chipB int) []plan {
	cfg := a.rack.Config()
	wA, rA, cA := a.rack.Place(chipA)
	wB, rB, cB := a.rack.Place(chipB)
	if wA > wB {
		wA, rA, cA, wB, rB, cB = wB, rB, cB, wA, rA, cA
	}

	var plans []plan
	nextPlan := func() *plan {
		plans = append(plans, plan{})
		return &plans[len(plans)-1]
	}
	if wA == wB {
		for _, hFirst := range [2]bool{true, false} {
			p := nextPlan()
			p.steps = intraWaferSteps(p.steps, wA, rA, cA, rB, cB, hFirst)
			p.fiberRow = -1
			p.turns = max(0, len(p.steps)-1)
		}
		for cm := 0; cm < cfg.Cols; cm++ {
			if cm == cA || cm == cB || rA == rB {
				continue
			}
			p := nextPlan()
			p.fiberRow = -1
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Horizontal, lane: rA, span: span(cA, cm)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Vertical, lane: cm, span: span(rA, rB)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Horizontal, lane: rB, span: span(cm, cB)})
			p.turns = 2
		}
		for rm := 0; rm < cfg.Rows; rm++ {
			if rm == rA || rm == rB || cA == cB {
				continue
			}
			p := nextPlan()
			p.fiberRow = -1
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Vertical, lane: cA, span: span(rA, rm)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Horizontal, lane: rm, span: span(cA, cB)})
			p.steps = append(p.steps, planStep{wafer: wA, o: wafer.Vertical, lane: cB, span: span(rm, rB)})
			p.turns = 2
		}
		return plans
	}

	trunks := trunkRange{lo: wA, hi: wB}
	for _, row := range a.fiberRowOrder(rA, trunks) {
		if !a.rowUsable(row, trunks) {
			continue
		}
		for _, hFirst := range [2]bool{true, false} {
			p := nextPlan()
			p.fiberRow = row
			p.steps = intraWaferSteps(p.steps, wA, rA, cA, row, cfg.Cols-1, hFirst)
			for w := wA + 1; w < wB; w++ {
				p.steps = append(p.steps, planStep{wafer: w, o: wafer.Horizontal, lane: row, span: wafer.Interval{Lo: 0, Hi: cfg.Cols - 1}})
			}
			p.steps = intraWaferSteps(p.steps, wB, row, 0, rB, cB, hFirst)
			p.trunks = trunks
			p.turns = max(0, len(p.steps)-1)
		}
	}
	return plans
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
	for tr := p.trunks.lo; tr < p.trunks.hi; tr++ {
		ref, aerr := a.rack.AllocFiber(tr, p.fiberRow)
		if aerr != nil {
			return nil, aerr
		}
		fibers = append(fibers, ref)
	}
	if err = a.reserveEndpoint(req.A, req.Width); err != nil {
		return nil, err
	}
	reservedA = true
	if err = a.reserveEndpoint(req.B, req.Width); err != nil {
		return nil, err
	}
	reservedB = true

	link := a.referenceEvaluate(p)
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
		Link:          link,
	}
	c.setPath(segs, fibers)
	a.nextID++
	a.circuits = append(a.circuits, c)
	a.ids = append(a.ids, c.ID)
	return c, nil
}

// referenceEvaluate is evaluate as it was before the running tally:
// it builds the plan's loss element list and sums it, the total and
// then the per-kind breakdown, each in list order.
func (a *Allocator) referenceEvaluate(p plan) phy.LinkReport {
	cfg := a.rack.Config()
	var elems []phy.LossElement
	elems = append(elems, a.loss.Coupling(), a.loss.Coupling())
	switches := 2 + p.turns
	for i := 0; i < switches; i++ {
		elems = append(elems, a.loss.MZIPass(), a.loss.MZIPass())
	}
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
		if extra := a.rack.Wafer(st.wafer).SpanExtraLossDB(st.o, st.lane, st.span); extra > 0 {
			elems = append(elems, phy.LossElement{Kind: phy.LossDefect, DB: unit.Decibel(extra)})
		}
	}
	for t := 0; t < p.turns; t++ {
		elems = append(elems, a.loss.Crossing())
	}
	for range p.trunks.hi - p.trunks.lo {
		elems = append(elems, a.loss.FiberHop())
	}

	var total unit.Decibel
	for _, e := range elems {
		total += e.DB
	}
	var byKind phy.LossBreakdown
	for _, e := range elems {
		byKind[e.Kind] += e.DB
	}
	b := a.Budget
	rx := b.LaunchPower.Sub(total)
	margin := unit.Decibel(rx - (b.ReceiverSensitivity + unit.DBm(b.Margin)))
	return phy.LinkReport{
		TotalLossDB:   total,
		ReceivedPower: rx,
		MarginDB:      margin,
		Feasible:      margin >= 0,
		ByKind:        byKind,
	}
}

func (a *Allocator) referenceProgramSwitches(req Request, p plan, now unit.Seconds) {
	for i, su := range a.planSwitches(req, p) {
		port := 1
		if i < 2 {
			port = 0
		}
		_ = su.tile.Switches[su.sw].Program(port)
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
	for round := 0; round < maxRounds && len(queue) > 0; round++ {
		out.Rounds++
		type proposal struct {
			pending
			plan plan
			ok   bool
		}
		proposals := make([]proposal, len(queue))
		for i, p := range queue {
			plans := d.Alloc.referencePlans(p.req.A, p.req.B)
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
	// build makes a fresh allocator of the fabric, counting its
	// Establish calls into calls; a restore replaces prod and ref with
	// built ones.
	build func(calls *int) *Allocator
	// prodCalls and refCalls count each side's Establish calls.
	prodCalls, refCalls int
	// live holds the established circuits as (production, reference)
	// pairs.
	live [][2]*Circuit
	// ops counts the operations applied, for failure messages.
	ops int
	// seen tallies the establish outcomes by cause, so a sweep can
	// check it reached every failure it claims to cover.
	seen map[string]int
}

// lockstepParams fixes one fabric: size, resource budgets
// and the allocator policies. The small budgets push the fabric into
// bus, fiber and endpoint exhaustion within a few dozen circuits.
type lockstepParams struct {
	wafers      int
	cfg         wafer.Config
	checkBudget bool
	pack        bool
	budget      phy.Budget
	// crossingDB overrides the measured 0.25 dB crossing loss when
	// positive. Sums of 0.25 dB crossings and 1 dB fiber hops round
	// alike in any order, so only a crossing loss off the binary grid
	// shows the loss tally's element order in the total's bits.
	crossingDB unit.Decibel
}

// drawLockstepParams derives a fabric from a seed and a flag byte:
// bit 1 CheckBudget, bit 2 PackFibers, bit 3 the paper's full-size
// lanes instead of a handful of buses. Bit 0 is unused; it selected a
// ring cascade, and the committed corpus still sets it.
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
		wafers:      1 + r.Intn(4),
		cfg:         cfg,
		checkBudget: flags&2 != 0,
		pack:        flags&4 != 0,
		budget:      phy.DefaultBudget(),
	}
	// A launch power from 0 to 10 dBm: at the low end the budget turns
	// down long or degraded paths.
	p.budget.LaunchPower = unit.DBm(r.Intn(11))
	if r.Intn(2) == 0 {
		p.crossingDB = unit.Decibel(0.2 + 0.1*r.Float64())
	}
	return p
}

func newLockstep(t testing.TB, seed uint64, p lockstepParams) *lockstep {
	t.Helper()
	build := func(calls *int) *Allocator {
		rack, err := wafer.NewRack(p.cfg, p.wafers)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAllocator(rack, rng.New(seed).Split("lockstep/loss"))
		a.CheckBudget = p.checkBudget
		a.PackFibers = p.pack
		a.Budget = p.budget
		a.loss.CrossingDB = p.crossingDB
		a.SetAuditHook(func(op string) {
			if op == "establish" {
				*calls++
			}
		})
		return a
	}
	ls := &lockstep{t: t, build: build, seen: map[string]int{}}
	ls.prod, ls.ref = build(&ls.prodCalls), build(&ls.refCalls)
	return ls
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
	if pc != nil {
		if !sameLinkBits(pc.Link, rc.Link) {
			ls.fatalf("%s: link report bits\n  prod %+v\n  ref  %+v", what, pc.Link, rc.Link)
		}
		ls.seen["link-checked"]++
		if pc.Link.ByKind[phy.LossDefect] > 0 {
			ls.seen["link-defect"]++
		}
	}
	if errString(perr) != errString(rerr) {
		ls.fatalf("%s: error\n  prod %q\n  ref  %q", what, errString(perr), errString(rerr))
	}
	for _, s := range lockstepSentinels {
		if errors.Is(perr, s) != errors.Is(rerr, s) {
			ls.fatalf("%s: errors.Is(%v) prod %v ref %v", what, s, errors.Is(perr, s), errors.Is(rerr, s))
		}
	}
	var pl, rl *wafer.LaneExhaustedError
	if errors.As(perr, &pl) != errors.As(rerr, &rl) {
		ls.fatalf("%s: errors.As(*LaneExhaustedError) prod %v ref %v", what, pl != nil, rl != nil)
	}
}

// sameLinkBits reports whether two link reports hold the same bits in
// every field: DeepEqual compares floats with ==, which would let a
// negative zero pass for a zero.
func sameLinkBits(p, r phy.LinkReport) bool {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if bits(float64(p.TotalLossDB)) != bits(float64(r.TotalLossDB)) ||
		bits(float64(p.ReceivedPower)) != bits(float64(r.ReceivedPower)) ||
		bits(float64(p.MarginDB)) != bits(float64(r.MarginDB)) || p.Feasible != r.Feasible {
		return false
	}
	for k := range p.ByKind {
		if bits(float64(p.ByKind[k])) != bits(float64(r.ByKind[k])) {
			return false
		}
	}
	return true
}

// sameState demands equal loss-stream positions and byte-identical
// checkpoints, and each side's ID column in step with its table.
func (ls *lockstep) sameState() {
	ls.t.Helper()
	for _, a := range [2]*Allocator{ls.prod, ls.ref} {
		if len(a.ids) != len(a.circuits) {
			ls.fatalf("ID column holds %d IDs for %d circuits", len(a.ids), len(a.circuits))
		}
		for i, c := range a.circuits {
			if a.ids[i] != c.ID {
				ls.fatalf("ids[%d] = %d, circuit %d there", i, a.ids[i], c.ID)
			}
		}
	}
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

// restore replaces both allocators with fresh ones restored from their
// checkpoints, re-linking the live circuits by ID.
func (ls *lockstep) restore() {
	ls.t.Helper()
	prod, ref := ls.build(&ls.prodCalls), ls.build(&ls.refCalls)
	for _, pair := range [2][2]*Allocator{{ls.prod, prod}, {ls.ref, ref}} {
		var e snapshot.Encoder
		pair[0].EncodeState(&e)
		if err := pair[1].RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
			ls.fatalf("restore: %v", err)
		}
	}
	for i, pair := range ls.live {
		pc, pok := prod.CircuitByID(pair[0].ID)
		rc, rok := ref.CircuitByID(pair[1].ID)
		if !pok || !rok {
			ls.fatalf("restore lost live circuit %d", pair[0].ID)
		}
		ls.live[i] = [2]*Circuit{pc, rc}
	}
	ls.prod, ls.ref = prod, ref
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
	case op < 33:
		req := ls.request(r, r.Intn(50) == 0)
		pc, perr := prod.Establish(req, now)
		rc, rerr := ref.referenceEstablish(req, now)
		ls.sameOutcome(fmt.Sprintf("establish %+v", req), pc, rc, perr, rerr)
		ls.seen[outcomeCause(rerr)]++
		if pc != nil {
			ls.live = append(ls.live, [2]*Circuit{pc, rc})
		}

	case op < 44:
		// The degradation ladder, up to width 8 so that wide requests
		// run the endpoint lasers short; now and then a width the
		// request validation refuses.
		req := ls.request(r, r.Intn(50) == 0)
		req.Width = 1 + r.Intn(8)
		if r.Intn(25) == 0 {
			req.Width = -r.Intn(2)
		}
		prodCalls, refCalls := ls.prodCalls, ls.refCalls
		pc, pdeg, perr := prod.EstablishDegraded(req, now)
		rc, rdeg, rerr := ref.referenceEstablishDegraded(req, now)
		what := fmt.Sprintf("degraded %+v", req)
		if req.Width <= 0 {
			// The reference ladder never ran Establish here and returned
			// no error at all, the bug EstablishDegraded fixes: it must
			// return Establish's validation error.
			rc, rerr = ref.referenceEstablish(req, now)
		}
		ls.sameOutcome(what, pc, rc, perr, rerr)
		if pdeg != rdeg {
			ls.fatalf("%s: degraded prod %v ref %v", what, pdeg, rdeg)
		}
		saved := (ls.refCalls - refCalls) - (ls.prodCalls - prodCalls)
		if saved < 0 {
			ls.fatalf("%s: the halving rule made %d more Establish calls", what, -saved)
		}
		ls.seen[outcomeCause(rerr)]++
		ls.seen["ladder-saved"] += saved
		if pdeg {
			ls.seen["ladder-narrowed"]++
		}
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
		f := chaos.Fault{Class: chaos.FiberCut, Trunk: r.Intn(rack.NumTrunks()), Row: r.Intn(rack.Config().Rows)}
		pb, perr := prod.ApplyFault(f)
		rb, rerr := ref.ApplyFault(f)
		ls.sameOutcome(fmt.Sprintf("cut %v", f), nil, nil, perr, rerr)
		ls.dropLive(fmt.Sprintf("cut %v", f), pb, rb)

	case op < 98:
		if rack.NumTrunks() == 0 {
			return
		}
		f := chaos.Fault{Class: chaos.FiberCut, Trunk: r.Intn(rack.NumTrunks()), Row: r.Intn(rack.Config().Rows)}
		ls.sameOutcome(fmt.Sprintf("repair %v", f), nil, nil, prod.Repair(f), ref.Repair(f))

	default:
		ls.restore()
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
// to the rollback path it replaced, and EstablishDegraded to the ladder
// that always halved, op for op, over every combination of budget
// checking, fiber packing and lane size, on fabrics small
// enough to run out of buses, fibers, lasers and ports, with
// checkpoint restores mixed in. The sweep must reach every cause a
// failed establish can report, and the ladder must both narrow
// circuits and skip futile halvings. Every placed circuit's link
// report must match the reference's list-summed one in bits, and the
// sweep must place circuits over defect-degraded spans with the budget
// checked and without.
func TestEstablishMatchesReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	seen := map[string]int{}
	var ladder [2]map[string]int // by CheckBudget
	for flags := uint8(0); flags < 16; flags++ {
		for s := 0; s < seeds; s++ {
			seed := uint64(flags)*1000 + uint64(s)
			t.Run(fmt.Sprintf("flags%02d/seed%d", flags, s), func(t *testing.T) {
				m := &ladder[flags>>1&1]
				if *m == nil {
					*m = map[string]int{}
				}
				for cause, n := range runLockstep(t, seed, flags, 300) {
					seen[cause] += n
					(*m)[cause] += n
				}
			})
		}
	}
	for _, want := range []string{"ok", "dead-endpoint", "fiber", "lasers", "ports", "bus", "severed", "stuck", "budget"} {
		if seen[want] == 0 {
			t.Errorf("the lockstep sweep never reported a %q outcome (saw %v)", want, seen)
		}
	}
	t.Logf("ladder outcomes, budget off: %v; budget on: %v", ladder[0], ladder[1])
	// The ladder must narrow a circuit with the budget checked and
	// without, and without it the halving rule must save calls.
	for budget, m := range ladder {
		if m["ladder-narrowed"] == 0 {
			t.Errorf("CheckBudget %v: the ladder never narrowed a circuit (saw %v)", budget == 1, m)
		}
		if m["link-defect"] == 0 {
			t.Errorf("CheckBudget %v: no circuit was placed over a degraded span (saw %v)", budget == 1, m)
		}
	}
	if ladder[0]["ladder-saved"] == 0 {
		t.Errorf("CheckBudget off: the halving rule never saved an Establish call (saw %v)", ladder[0])
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
