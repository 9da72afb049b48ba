package netsim

import (
	"fmt"
	"math"

	"lightpath/internal/unit"
)

// This file is the fluid solver. The generic, map-indexed reference
// oracle (differential_test.go) computes max-min fair rates over
// resource maps; Sim computes the same rates — bit for bit — over an
// interned, integer-indexed representation, and advances one clock
// per connected component of the sharing graph:
//
//   - Each distinct resource R is interned to a dense int32 on first
//     sight, scanning flows in index order and each flow's Via in
//     order. Bottleneck tie-breaks do not come from these ids but
//     from a per-refill census order over the unfinished flows (see
//     refill), which reproduces the oracle's `order` slice exactly.
//   - The flow→resource incidence is stored as a CSR (compressed
//     sparse row) pair viaStart/viaRes, and the reverse resource→flow
//     index as resStart/resFlows, both flat []int32. Progressive
//     filling then runs over slice indexing only — no map hashing on
//     the hot path.
//   - Flows and resources are partitioned into connected components
//     of the sharing graph once per call. Components never exchange
//     bytes, so Run solves each one as an independent simulation, in
//     ascending component order: a completion refills and rescans
//     only its own component. That is how netsim scales from the
//     thousands of flows a wafer carries to the millions a
//     rail-optimized datacenter fabric carries (the RailFabric
//     campaign). The contract: each component's results are
//     bit-identical to the oracle simulation run on that component's
//     flows alone (DESIGN.md "Performance engineering").
//
// A zero Sim is ready to use and reuses all internal storage across
// calls, so a caller that simulates many flow sets — the schedule
// executors, the campaign loops — runs allocation-free at steady
// state. A Sim must not be used from multiple goroutines at once.

// Sim is a reusable fluid-flow simulator. Every scratch structure —
// the interning table, the CSR incidence, rate vectors, and the
// returned result slices — is reused across Run calls.
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

	// Progressive-filling state.
	rates    []float64
	frozen   []bool
	residual []float64
	users    []int32

	// remaining[f] is flow f's undelivered bytes; a flow takes part in
	// the rate computation while it is positive.
	remaining []float64

	// Result storage. The slices returned in Result alias these and
	// are valid until the next call on the same Sim.
	flowEnd   []unit.Seconds
	delivered []unit.Bytes
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
func growZero[T ~int32 | ~float64](s []T, n int) []T {
	s = grow(s, n)
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// build interns the flow set and constructs the CSR incidence, the
// reverse index, the component partition, and the per-flow remaining
// bytes. It validates the flows in index order (negative sizes, empty
// Via, unknown and zero-capacity resources).
func (s *Sim[R]) build(flows []Flow[R], caps map[R]unit.BitRate) error {
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
	for i, f := range flows {
		if f.Bytes < 0 {
			return fmt.Errorf("netsim: flow %d has negative size", i)
		}
		if f.Bytes == 0 {
			s.viaStart[i+1] = int32(len(s.viaRes))
			continue
		}
		if len(f.Via) == 0 {
			return fmt.Errorf("%w: flow %d traverses no resources", ErrStarvedFlow, i)
		}
		for _, r := range f.Via {
			id, ok := s.ids[r]
			if !ok {
				c, okc := caps[r]
				if !okc {
					return fmt.Errorf("netsim: flow %d uses unknown resource %v", i, r)
				}
				if c <= 0 {
					return fmt.Errorf("%w: flow %d crosses zero-capacity resource %v", ErrStarvedFlow, i, r)
				}
				id = int32(len(s.names))
				s.ids[r] = id
				s.names = append(s.names, r)
				s.capBps = append(s.capBps, c.BytesPerSecond())
			}
			s.viaRes = append(s.viaRes, id)
		}
		s.viaStart[i+1] = int32(len(s.viaRes))
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
	s.compFlows = grow(s.compFlows, int(s.compFlowStart[s.nComp]))
	copy(s.tmp, s.compFlowStart[:s.nComp])
	for f := 0; f < n; f++ {
		c := s.compOfFlow[f]
		if c < 0 {
			continue
		}
		s.compFlows[s.tmp[c]] = int32(f)
		s.tmp[c]++
	}

	s.rates = growZero(s.rates, n)
	s.frozen = grow(s.frozen, n)
	s.residual = grow(s.residual, nRes)
	s.users = grow(s.users, nRes)
	s.remaining = grow(s.remaining, n)
	for i, f := range flows {
		s.remaining[i] = float64(f.Bytes)
	}
	return nil
}

// find is union-find lookup with path halving.
func (s *Sim[R]) find(x int32) int32 {
	for s.uf[x] != x {
		s.uf[x] = s.uf[s.uf[x]]
		x = s.uf[x]
	}
	return x
}

// refill runs progressive filling over one component: repeatedly find
// its most constrained resource (minimal residual per user), freeze
// that resource's unfrozen flows at the fair share, and charge their
// crossings. Ties between equally constrained resources resolve by
// census order — first use scanning the component's unfinished flows
// ascending, each flow's Via in order — which is exactly the oracle's
// `order` slice restricted to this component; interned-id order is
// NOT equivalent, because a retired flow may have been a resource's
// first user. With the scan order matched, the float operations and
// their sequence are identical to the oracle's progressive filling
// over the same unfinished flows, so the computed rates are
// bit-identical to the oracle's.
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
		if s.remaining[f] <= 0 {
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
// all complete, solving each connected component of the sharing graph
// as an independent simulation with its own clock, and returns
// per-flow completion times. Flows with zero bytes complete at time
// zero. Resources not present in caps are an error — silently
// treating them as infinite would hide modeling bugs. It returns the
// first failing component's error. The returned slices alias the
// Sim's storage and are valid until the next call on this Sim.
func (s *Sim[R]) Run(flows []Flow[R], caps map[R]unit.BitRate) (Result, error) {
	if err := s.build(flows, caps); err != nil {
		return Result{}, err
	}
	n := len(flows)
	s.flowEnd = growZero(s.flowEnd, n)
	s.delivered = growZero(s.delivered, n)
	for c := 0; c < s.nComp; c++ {
		if err := s.runComponent(int32(c), flows); err != nil {
			return Result{}, err
		}
	}

	res := Result{FlowEnd: s.flowEnd, Delivered: s.delivered}
	for i := range flows {
		if res.FlowEnd[i] > res.Makespan {
			res.Makespan = res.FlowEnd[i]
		}
	}
	return res, nil
}

// runComponent runs the complete fluid simulation of one component:
// refill the component's rates, advance to its earliest completion,
// retire finished flows, repeat. Apart from the refill census
// scratch, it writes only state indexed by the component's own flows
// and resources.
func (s *Sim[R]) runComponent(c int32, flows []Flow[R]) error {
	fls := s.compFlows[s.compFlowStart[c]:s.compFlowStart[c+1]]
	remaining := s.remaining
	// Every flow in a component has positive bytes: build assigns
	// zero-byte flows to none.
	left := len(fls)
	now := 0.0
	//lightpath:hotloop
	for left > 0 {
		s.refill(c)
		rates := s.rates
		// Advance to the component's earliest completion.
		dt := math.Inf(1)
		for _, f := range fls {
			if remaining[f] <= 0 {
				continue
			}
			if rates[f] <= 0 {
				return fmt.Errorf("%w: flow %d received zero rate", ErrStarvedFlow, f)
			}
			if t := remaining[f] / rates[f]; t < dt {
				dt = t
			}
		}
		now += dt
		for _, f := range fls {
			if remaining[f] <= 0 {
				continue
			}
			remaining[f] -= rates[f] * dt
			// Tolerate float round-off at the completion boundary.
			if remaining[f] <= 1e-6 {
				remaining[f] = 0
				s.flowEnd[f] = unit.Seconds(now)
				s.delivered[f] = flows[f].Bytes
				left--
			}
		}
	}
	return nil
}
