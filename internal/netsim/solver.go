package netsim

import (
	"fmt"
	"math"

	"lightpath/internal/unit"
)

// This file is the production solver. The generic, map-indexed
// fairRates in netsim.go stays as the reference oracle; Sim computes
// the same max-min fair rates — bit for bit — over an interned,
// integer-indexed representation:
//
//   - Each distinct resource R is interned to a dense int32 on first
//     sight, scanning flows in index order and each flow's Via in
//     order. Bottleneck tie-breaks do not come from these ids but
//     from a per-refill census order over the active flows (see
//     refill), which reproduces the oracle's `order` slice exactly.
//   - The flow→resource incidence is stored as a CSR (compressed
//     sparse row) pair viaStart/viaRes, and the reverse resource→flow
//     index as resStart/resFlows, both flat []int32. Progressive
//     filling then runs over slice indexing only — no map hashing on
//     the hot path.
//   - Flows and resources are partitioned into connected components
//     of the sharing graph once per call. Rates in one component
//     never depend on another component's flows, so when a
//     completion, failure, or restore event changes a flow's
//     activity, only its component is refilled; every other
//     component keeps its cached rates. A full refill happens
//     exactly once per Run/RunEvents call, when everything starts
//     dirty. (DESIGN.md "Performance engineering" gives the
//     byte-identity argument.)
//
// A zero Sim is ready to use and reuses all internal storage across
// calls, so a caller that simulates many flow sets — the schedule
// executors, the campaign loops — runs allocation-free at steady
// state. A Sim must not be used from multiple goroutines at once.

// Sim is a reusable fluid-flow simulator. The package-level Run and
// RunEvents are shims that run a fresh Sim per call; callers on a hot
// path hold one Sim and call its methods so every scratch structure —
// the interning table, the CSR incidence, rate vectors, and the
// returned result slices — is reused.
type Sim[R comparable] struct {
	// Interning: resource -> dense id in first-use order, and back.
	ids   map[R]int32
	names []R
	// capBps[r] is resource r's capacity in bytes/second.
	capBps []float64
	// CSR flow->resource incidence: flow f occupies
	// viaRes[viaStart[f]:viaStart[f+1]], mirroring Via verbatim
	// (duplicates included, so repeated resources charge capacity
	// exactly as the oracle does).
	viaStart []int32
	viaRes   []int32
	// Reverse CSR resource->flow index: resource r is crossed by
	// resFlows[resStart[r]:resStart[r+1]], ascending flow order.
	resStart []int32
	resFlows []int32
	// Connected components of the sharing graph (resources joined by
	// the flows that cross them), numbered in first-use resource
	// order. compRes/compFlows group member resources and flows per
	// component, both ascending.
	compOfRes     []int32
	compOfFlow    []int32 // -1 for zero-byte flows
	nComp         int
	compResStart  []int32
	compRes       []int32
	compFlowStart []int32
	compFlows     []int32
	uf            []int32 // union-find scratch over resources
	tmp           []int32 // counting-sort cursor scratch
	refillOrder   []int32 // per-refill bottleneck scan order scratch

	// Progressive-filling state. active[f] is whether flow f takes
	// part in the rate computation (positive remaining bytes and, for
	// RunEvents, running phase); dirty[c] marks components whose
	// activity changed since their last refill.
	rates    []float64
	frozen   []bool
	residual []float64
	users    []int32
	active   []bool
	dirty    []bool

	// Event-loop scratch, hoisted out of RunEvents so repeated calls
	// do not re-allocate it (the old per-call dead map, phase,
	// deadline and runRemaining slices).
	remaining []float64
	deadRes   []bool
	phase     []flowPhase
	deadline  []float64
	// Per-event failed/restored resource ids, CSR by event index, so
	// the event loop applies health changes without map lookups.
	evFailStart    []int32
	evFail         []int32
	evRestoreStart []int32
	evRestore      []int32

	// Result storage. The slices returned in Result/EventResult alias
	// these and are valid until the next call on the same Sim.
	flowEnd   []unit.Seconds
	delivered []unit.Bytes
	retries   []int
	stalled   []unit.Seconds
}

// grow returns s with length n, reusing capacity. Contents are
// unspecified; callers overwrite or zero what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZero returns s with length n and every element zeroed.
func growZero[T ~int32 | ~float64 | ~int | ~int64 | bool](s []T, n int) []T {
	s = grow(s, n)
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// build interns the flow set and constructs the CSR incidence, the
// reverse index, and the component partition. It performs the same
// validation, in the same order, as the original Run/RunEvents
// prologue (negative sizes, empty Via, unknown and zero-capacity
// resources) and returns the number of flows with positive bytes.
func (s *Sim[R]) build(flows []Flow[R], caps map[R]unit.BitRate) (int, error) {
	n := len(flows)
	if s.ids == nil {
		s.ids = make(map[R]int32, len(caps))
	} else {
		clear(s.ids)
	}
	s.names = s.names[:0]
	s.capBps = s.capBps[:0]
	s.viaStart = grow(s.viaStart, n+1)
	s.viaRes = s.viaRes[:0]
	s.viaStart[0] = 0
	positive := 0
	for i, f := range flows {
		if f.Bytes < 0 {
			return 0, fmt.Errorf("netsim: flow %d has negative size", i)
		}
		if f.Bytes == 0 {
			s.viaStart[i+1] = int32(len(s.viaRes))
			continue
		}
		if len(f.Via) == 0 {
			return 0, fmt.Errorf("%w: flow %d traverses no resources", ErrStarvedFlow, i)
		}
		for _, r := range f.Via {
			id, ok := s.ids[r]
			if !ok {
				c, okc := caps[r]
				if !okc {
					return 0, fmt.Errorf("netsim: flow %d uses unknown resource %v", i, r)
				}
				if c <= 0 {
					return 0, fmt.Errorf("%w: flow %d crosses zero-capacity resource %v", ErrStarvedFlow, i, r)
				}
				id = int32(len(s.names))
				s.ids[r] = id
				s.names = append(s.names, r)
				s.capBps = append(s.capBps, c.BytesPerSecond())
			}
			s.viaRes = append(s.viaRes, id)
		}
		s.viaStart[i+1] = int32(len(s.viaRes))
		positive++
	}
	nRes := len(s.names)

	// Reverse index by counting sort: ascending resource, then
	// ascending flow (with a flow's duplicate crossings adjacent).
	s.resStart = growZero(s.resStart, nRes+1)
	for _, id := range s.viaRes {
		s.resStart[id+1]++
	}
	for r := 0; r < nRes; r++ {
		s.resStart[r+1] += s.resStart[r]
	}
	s.resFlows = grow(s.resFlows, len(s.viaRes))
	s.tmp = grow(s.tmp, nRes)
	copy(s.tmp, s.resStart[:nRes])
	for f := 0; f < n; f++ {
		for k := s.viaStart[f]; k < s.viaStart[f+1]; k++ {
			r := s.viaRes[k]
			s.resFlows[s.tmp[r]] = int32(f)
			s.tmp[r]++
		}
	}

	// Components: union every flow's resources, then number roots in
	// first-use resource order so the partition is deterministic.
	s.uf = grow(s.uf, nRes)
	for r := range s.uf {
		s.uf[r] = int32(r)
	}
	for f := 0; f < n; f++ {
		lo, hi := s.viaStart[f], s.viaStart[f+1]
		if lo == hi {
			continue
		}
		root := s.find(s.viaRes[lo])
		for k := lo + 1; k < hi; k++ {
			other := s.find(s.viaRes[k])
			if other != root {
				if other < root {
					root, other = other, root
				}
				s.uf[other] = root
			}
		}
	}
	s.compOfRes = grow(s.compOfRes, nRes)
	s.nComp = 0
	for r := 0; r < nRes; r++ {
		root := s.find(int32(r))
		if int(root) == r {
			s.compOfRes[r] = int32(s.nComp)
			s.nComp++
		} else {
			s.compOfRes[r] = s.compOfRes[root]
		}
	}
	s.compOfFlow = grow(s.compOfFlow, n)
	for f := 0; f < n; f++ {
		if s.viaStart[f] == s.viaStart[f+1] {
			s.compOfFlow[f] = -1
			continue
		}
		s.compOfFlow[f] = s.compOfRes[s.viaRes[s.viaStart[f]]]
	}

	// Group members per component, again by counting sort.
	s.compResStart = growZero(s.compResStart, s.nComp+1)
	for _, c := range s.compOfRes[:nRes] {
		s.compResStart[c+1]++
	}
	for c := 0; c < s.nComp; c++ {
		s.compResStart[c+1] += s.compResStart[c]
	}
	s.compRes = grow(s.compRes, nRes)
	s.tmp = grow(s.tmp, s.nComp)
	copy(s.tmp, s.compResStart[:s.nComp])
	for r := 0; r < nRes; r++ {
		c := s.compOfRes[r]
		s.compRes[s.tmp[c]] = int32(r)
		s.tmp[c]++
	}
	s.compFlowStart = growZero(s.compFlowStart, s.nComp+1)
	for f := 0; f < n; f++ {
		if c := s.compOfFlow[f]; c >= 0 {
			s.compFlowStart[c+1]++
		}
	}
	for c := 0; c < s.nComp; c++ {
		s.compFlowStart[c+1] += s.compFlowStart[c]
	}
	s.compFlows = grow(s.compFlows, positiveViaFlows(s.compOfFlow))
	copy(s.tmp, s.compFlowStart[:s.nComp])
	for f := 0; f < n; f++ {
		c := s.compOfFlow[f]
		if c < 0 {
			continue
		}
		s.compFlows[s.tmp[c]] = int32(f)
		s.tmp[c]++
	}

	// Filling state: everything starts dirty, every positive flow
	// active.
	s.rates = growZero(s.rates, n)
	s.frozen = grow(s.frozen, n)
	s.residual = grow(s.residual, nRes)
	s.users = grow(s.users, nRes)
	s.active = grow(s.active, n)
	for f := 0; f < n; f++ {
		s.active[f] = s.viaStart[f] != s.viaStart[f+1]
	}
	s.dirty = grow(s.dirty, s.nComp)
	for c := range s.dirty {
		s.dirty[c] = true
	}
	return positive, nil
}

// positiveViaFlows counts flows assigned to a component.
func positiveViaFlows(compOfFlow []int32) int {
	n := 0
	for _, c := range compOfFlow {
		if c >= 0 {
			n++
		}
	}
	return n
}

// find is union-find lookup with path halving.
func (s *Sim[R]) find(x int32) int32 {
	for s.uf[x] != x {
		s.uf[x] = s.uf[s.uf[x]]
		x = s.uf[x]
	}
	return x
}

// markFlowDirty schedules flow f's component for refilling after its
// activity changed (completion, stall, or resume).
func (s *Sim[R]) markFlowDirty(f int) {
	if c := s.compOfFlow[f]; c >= 0 {
		s.dirty[c] = true
	}
}

// computeRates brings s.rates up to date by refilling every dirty
// component. Clean components keep their cached rates — the
// incremental-recompute contract: a component's rates depend only on
// its own members' activity, so they are exactly what a full refill
// would produce.
func (s *Sim[R]) computeRates() {
	for c := 0; c < s.nComp; c++ {
		if s.dirty[c] {
			s.refill(int32(c))
			s.dirty[c] = false
		}
	}
}

// refill runs progressive filling over one component: repeatedly find
// its most constrained resource (minimal residual per user), freeze
// that resource's unfrozen flows at the fair share, and charge their
// crossings. Ties between equally constrained resources resolve by
// census order — first use scanning the component's *active* flows
// ascending, each flow's Via in order — which is exactly the oracle's
// `order` slice restricted to this component; interned-id order is
// NOT equivalent, because a retired flow may have been a resource's
// first user. With the scan order matched, the float operations and
// their sequence are identical to fairRatesInto over the same active
// set, so the computed rates are bit-identical to the oracle's.
func (s *Sim[R]) refill(c int32) {
	res := s.compRes[s.compResStart[c]:s.compResStart[c+1]]
	fls := s.compFlows[s.compFlowStart[c]:s.compFlowStart[c+1]]
	for _, r := range res {
		s.residual[r] = s.capBps[r]
		s.users[r] = 0
	}
	order := s.refillOrder[:0]
	for _, f := range fls {
		s.rates[f] = 0
		if !s.active[f] {
			s.frozen[f] = true
			continue
		}
		s.frozen[f] = false
		for k := s.viaStart[f]; k < s.viaStart[f+1]; k++ {
			r := s.viaRes[k]
			if s.users[r] == 0 {
				order = append(order, r)
			}
			s.users[r]++
		}
	}
	s.refillOrder = order[:0]
	for {
		var bestR int32 = -1
		best := math.Inf(1)
		for _, r := range order {
			n := s.users[r]
			if n == 0 {
				continue
			}
			if share := s.residual[r] / float64(n); share < best {
				best = share
				bestR = r
			}
		}
		if bestR < 0 {
			return
		}
		for _, f := range s.resFlows[s.resStart[bestR]:s.resStart[bestR+1]] {
			if s.frozen[f] {
				continue
			}
			s.rates[f] = best
			s.frozen[f] = true
			for k := s.viaStart[f]; k < s.viaStart[f+1]; k++ {
				r := s.viaRes[k]
				s.residual[r] -= best
				if s.residual[r] < 0 {
					s.residual[r] = 0
				}
				s.users[r]--
			}
		}
	}
}

// Run simulates the flows sharing the given resource capacities until
// all complete, exactly like the package-level Run, reusing the Sim's
// storage. The returned slices alias that storage and are valid until
// the next call on this Sim.
func (s *Sim[R]) Run(flows []Flow[R], caps map[R]unit.BitRate) (Result, error) {
	active, err := s.build(flows, caps)
	if err != nil {
		return Result{}, err
	}
	n := len(flows)
	s.flowEnd = growZero(s.flowEnd, n)
	s.delivered = growZero(s.delivered, n)
	res := Result{FlowEnd: s.flowEnd, Delivered: s.delivered}
	s.remaining = grow(s.remaining, n)
	remaining := s.remaining
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
	}

	now := 0.0
	//lightpath:hotloop
	for active > 0 {
		s.computeRates()
		rates := s.rates
		// Advance to the earliest completion.
		dt := math.Inf(1)
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			if rates[i] <= 0 {
				return Result{}, fmt.Errorf("%w: flow %d received zero rate", ErrStarvedFlow, i)
			}
			if t := remaining[i] / rates[i]; t < dt {
				dt = t
			}
		}
		now += dt
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			remaining[i] -= rates[i] * dt
			// Tolerate float round-off at the completion boundary.
			if remaining[i] <= 1e-6 {
				remaining[i] = 0
				res.FlowEnd[i] = unit.Seconds(now)
				res.Delivered[i] = flows[i].Bytes
				active--
				s.active[i] = false
				s.markFlowDirty(i)
			}
		}
	}
	for i := range flows {
		if res.FlowEnd[i] > res.Makespan {
			res.Makespan = res.FlowEnd[i]
		}
	}
	return res, nil
}

// buildEvents interns the events' failed/restored resources into flat
// CSR form. Resources no flow crosses are dropped: failing or
// restoring them cannot stall anyone, exactly as with the oracle's
// dead-set map.
func (s *Sim[R]) buildEvents(events []Event[R]) {
	s.evFailStart = grow(s.evFailStart, len(events)+1)
	s.evRestoreStart = grow(s.evRestoreStart, len(events)+1)
	s.evFail = s.evFail[:0]
	s.evRestore = s.evRestore[:0]
	s.evFailStart[0] = 0
	s.evRestoreStart[0] = 0
	for i, ev := range events {
		for _, r := range ev.Fail {
			if id, ok := s.ids[r]; ok {
				s.evFail = append(s.evFail, id)
			}
		}
		for _, r := range ev.Restore {
			if id, ok := s.ids[r]; ok {
				s.evRestore = append(s.evRestore, id)
			}
		}
		s.evFailStart[i+1] = int32(len(s.evFail))
		s.evRestoreStart[i+1] = int32(len(s.evRestore))
	}
}

// healthy reports whether none of flow f's resources is failed.
func (s *Sim[R]) healthy(f int) bool {
	for k := s.viaStart[f]; k < s.viaStart[f+1]; k++ {
		if s.deadRes[s.viaRes[k]] {
			return false
		}
	}
	return true
}

// RunEvents simulates the flows under the failure events, exactly
// like the package-level RunEvents, reusing the Sim's storage. The
// returned slices alias that storage and are valid until the next
// call on this Sim.
func (s *Sim[R]) RunEvents(flows []Flow[R], caps map[R]unit.BitRate, events []Event[R], pol RetryPolicy) (EventResult, error) {
	if err := pol.validate(); err != nil {
		return EventResult{}, err
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			return EventResult{}, fmt.Errorf("netsim: events not sorted by time (event %d at %v after %v)",
				i, events[i].At, events[i-1].At)
		}
	}
	active, err := s.build(flows, caps)
	if err != nil {
		return EventResult{}, err
	}
	s.buildEvents(events)
	n := len(flows)
	s.flowEnd = growZero(s.flowEnd, n)
	s.delivered = growZero(s.delivered, n)
	s.retries = growZero(s.retries, n)
	s.stalled = growZero(s.stalled, n)
	res := EventResult{
		Result:  Result{FlowEnd: s.flowEnd, Delivered: s.delivered},
		Retries: s.retries,
		Stalled: s.stalled,
	}
	s.remaining = grow(s.remaining, n)
	s.phase = grow(s.phase, n)
	s.deadline = grow(s.deadline, n)
	remaining, phase, deadline := s.remaining, s.phase, s.deadline
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
		deadline[i] = 0
		if f.Bytes > 0 {
			phase[i] = phaseRunning
		} else {
			phase[i] = phaseDone
		}
	}
	s.deadRes = growZero(s.deadRes, len(s.names))

	// Stalled flows transmit nothing, so they are excluded from the
	// rate computation entirely (inactive) and the survivors share
	// the full configured capacities.
	now := 0.0
	eventIdx := 0
	//lightpath:hotloop
	for active > 0 {
		// Rates over running flows only; only components whose
		// activity changed since the previous iteration refill.
		s.computeRates()
		rates := s.rates

		// Advance to the next transition: a completion, an external
		// event, a detection expiry, or a backoff expiry.
		dt := math.Inf(1)
		for i := range flows {
			switch phase[i] {
			case phaseRunning:
				if rates[i] <= 0 {
					return EventResult{}, fmt.Errorf("%w: flow %d received zero rate", ErrStarvedFlow, i)
				}
				if t := remaining[i] / rates[i]; t < dt {
					dt = t
				}
			case phaseStalled, phaseBackoff:
				if t := deadline[i] - now; t < dt {
					dt = t
				}
			}
		}
		if eventIdx < len(events) {
			if t := float64(events[eventIdx].At) - now; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			return EventResult{}, fmt.Errorf("%w (t=%v)", ErrStalledForever, unit.Seconds(now))
		}
		if dt < 0 {
			dt = 0
		}
		now += dt

		// Progress and stall accounting.
		for i := range flows {
			switch phase[i] {
			case phaseRunning:
				remaining[i] -= rates[i] * dt
				if remaining[i] <= 1e-6 {
					remaining[i] = 0
					phase[i] = phaseDone
					res.FlowEnd[i] = unit.Seconds(now)
					res.Delivered[i] = flows[i].Bytes
					active--
					s.active[i] = false
					s.markFlowDirty(i)
				}
			case phaseStalled, phaseBackoff:
				res.Stalled[i] += unit.Seconds(dt)
			}
		}

		// External events at now.
		for eventIdx < len(events) && float64(events[eventIdx].At) <= now+1e-15 {
			for _, r := range s.evFail[s.evFailStart[eventIdx]:s.evFailStart[eventIdx+1]] {
				s.deadRes[r] = true
			}
			for _, r := range s.evRestore[s.evRestoreStart[eventIdx]:s.evRestoreStart[eventIdx+1]] {
				s.deadRes[r] = false
			}
			eventIdx++
		}

		// Phase transitions driven by health and deadlines. Every
		// running<->not-running transition dirties the flow's
		// component; stalled<->backoff moves do not change rates.
		for i := range flows {
			switch phase[i] {
			case phaseRunning:
				if !s.healthy(i) {
					phase[i] = phaseStalled
					deadline[i] = now + float64(pol.Detection)
					s.active[i] = false
					s.markFlowDirty(i)
				}
			case phaseStalled:
				if s.healthy(i) {
					// Healed inside the detection window: transparent
					// resume, no retransmission.
					phase[i] = phaseRunning
					s.active[i] = true
					s.markFlowDirty(i)
					continue
				}
				if now >= deadline[i]-1e-15 {
					// Declared dead: abandon the attempt, pay the
					// backoff, retransmit from scratch.
					res.WastedBytes += flows[i].Bytes - unit.Bytes(remaining[i])
					res.Retries[i]++
					if res.Retries[i] > pol.MaxRetries {
						return EventResult{}, fmt.Errorf("%w: flow %d after %d attempts", ErrRetriesExhausted, i, res.Retries[i])
					}
					remaining[i] = float64(flows[i].Bytes)
					backoff := float64(pol.Backoff) * math.Pow(pol.BackoffFactor, float64(res.Retries[i]-1))
					phase[i] = phaseBackoff
					deadline[i] = now + backoff
				}
			case phaseBackoff:
				if now >= deadline[i]-1e-15 {
					if s.healthy(i) {
						phase[i] = phaseRunning
						s.active[i] = true
						s.markFlowDirty(i)
					} else {
						// Retry into a dead fabric: stall again and
						// let detection charge the next retry.
						phase[i] = phaseStalled
						deadline[i] = now + float64(pol.Detection)
					}
				}
			}
		}
	}
	for i := range flows {
		if res.FlowEnd[i] > res.Makespan {
			res.Makespan = res.FlowEnd[i]
		}
	}
	return res, nil
}
