// Package netsim is a discrete-event fluid-flow network simulator: a
// set of flows share the capacity of the resources (links, circuits)
// they traverse under max-min fairness, and the simulator advances
// from flow completion to flow completion, recomputing the fair rates
// as capacity frees up.
//
// It exists to validate the paper's analytic alpha-beta arguments
// dynamically: collective schedules execute against an electrical
// torus (where concurrent transfers contend on shared links — the
// paper's congestion) or against photonic circuits (contention-free by
// construction), and the measured completion times must bracket and
// converge to the cost model's predictions (a DESIGN.md invariant).
package netsim

import (
	"errors"
	"math"

	"lightpath/internal/unit"
)

// Flow is one data transfer traversing a set of shared resources.
type Flow[R comparable] struct {
	// Bytes is the payload size.
	Bytes unit.Bytes
	// Via lists the resources the flow occupies; its rate is the
	// max-min fair share of its most contended resource.
	Via []R
}

// Result reports a simulated flow set.
type Result struct {
	// Makespan is when the last flow finished.
	Makespan unit.Seconds
	// FlowEnd[i] is when flow i finished.
	FlowEnd []unit.Seconds
	// Delivered[i] is the bytes flow i delivered (equals its request;
	// exposed so tests can assert conservation).
	Delivered []unit.Bytes
}

// ErrStarvedFlow reports a flow that can never finish: it has positive
// bytes but traverses no resource or a zero-capacity resource.
var ErrStarvedFlow = errors.New("netsim: flow can never complete")

// rateScratch is the reusable working storage of the max-min fair
// rate computation. The fluid simulators recompute rates once per
// completion event, so allocating these five structures per call
// dominated the simulator's allocation profile; a zero-value scratch
// is ready to use and is reset (not reallocated) on every call.
type rateScratch[R comparable] struct {
	rates    []float64
	frozen   []bool
	residual map[R]float64
	users    map[R]int
	order    []R
}

// reset prepares the scratch for n flows, reusing capacity.
func (s *rateScratch[R]) reset(n int, caps int) {
	if cap(s.rates) < n {
		s.rates = make([]float64, n)
		s.frozen = make([]bool, n)
	} else {
		s.rates = s.rates[:n]
		s.frozen = s.frozen[:n]
		for i := range s.rates {
			s.rates[i] = 0
			s.frozen[i] = false
		}
	}
	if s.residual == nil {
		s.residual = make(map[R]float64, caps)
		s.users = make(map[R]int, caps)
	} else {
		clear(s.residual)
		clear(s.users)
	}
	s.order = s.order[:0]
}

// fairRates computes max-min fair rates (bytes/second) by progressive
// filling: repeatedly find the most constrained resource, freeze its
// flows at the fair share, and remove them. It is the reference
// oracle the interned CSR solver (Sim, solver.go) is differentially
// tested against; production paths go through Sim.
func fairRates[R comparable](flows []Flow[R], caps map[R]unit.BitRate, remaining []float64) []float64 {
	var s rateScratch[R]
	return fairRatesInto(&s, flows, caps, remaining)
}

// fairRatesInto is fairRates with caller-owned scratch; the returned
// slice aliases the scratch and is valid until the next call with the
// same scratch.
func fairRatesInto[R comparable](s *rateScratch[R], flows []Flow[R], caps map[R]unit.BitRate, remaining []float64) []float64 {
	s.reset(len(flows), len(caps))
	rates, frozen := s.rates, s.frozen
	// Residual capacity in bytes/second. order fixes the bottleneck
	// scan to first-use order so equal-share ties always resolve the
	// same way regardless of map iteration order.
	residual, users, order := s.residual, s.users, s.order
	for i, f := range flows {
		if remaining[i] <= 0 {
			frozen[i] = true
			continue
		}
		for _, r := range f.Via {
			if users[r] == 0 {
				order = append(order, r)
				residual[r] = caps[r].BytesPerSecond()
			}
			users[r]++
		}
	}
	// order is complete once the census above finishes; saving it here
	// (instead of in a deferred closure) keeps the call defer-free.
	s.order = order

	for {
		// Most constrained resource: minimal residual / users.
		var bestR R
		best := math.Inf(1)
		found := false
		for _, r := range order {
			n := users[r]
			if n == 0 {
				continue
			}
			if share := residual[r] / float64(n); share < best {
				best = share
				bestR = r
				found = true
			}
		}
		if !found {
			return rates
		}
		// Freeze every unfrozen flow crossing the bottleneck.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			crosses := false
			for _, r := range f.Via {
				if r == bestR {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rates[i] = best
			frozen[i] = true
			for _, r := range f.Via {
				residual[r] -= best
				if residual[r] < 0 {
					residual[r] = 0
				}
				users[r]--
			}
		}
	}
}
