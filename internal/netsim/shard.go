package netsim

import (
	"fmt"
	"math"

	"lightpath/internal/unit"
)

// This file is the component-sharded solver: RunSharded partitions
// the flow set into the connected components of the sharing graph
// (already computed by build for the incremental refill) and runs an
// entire independent fluid simulation per component, in ascending
// component order. It is how netsim scales from the thousands of
// flows a single wafer carries to the millions a rail-optimized
// datacenter fabric carries (the RailFabric campaign): components
// never exchange bytes, so the global O(flows) scan per completion
// event that Run pays shrinks to a per-component scan.
//
// Relation to Run. Within one component RunSharded performs exactly
// Run's arithmetic: refill at every completion event, minimum
// time-to-completion step, identical float operation order. Across
// components it differs deliberately — Run advances a single global
// clock, interleaving every component's completion events into one
// dt sequence, while RunSharded advances each component's clock
// independently. In exact arithmetic the results coincide; in floats
// the global interleaving rounds differently, so RunSharded's
// contract is: each component's results are bit-identical to running
// Run on that component's flows alone (and Run stays bit-identical
// to the fairRates oracle via the existing differential tests).

// RunSharded simulates the flows sharing the given resource
// capacities until all complete, like Run, but solves each connected
// component of the sharing graph as an independent simulation. It
// returns the first failing component's error. The returned slices
// alias the Sim's storage and are valid until the next call on this
// Sim.
func (s *Sim[R]) RunSharded(flows []Flow[R], caps map[R]unit.BitRate) (Result, error) {
	if _, err := s.build(flows, caps); err != nil {
		return Result{}, err
	}
	n := len(flows)
	s.flowEnd = growZero(s.flowEnd, n)
	s.delivered = growZero(s.delivered, n)
	s.remaining = grow(s.remaining, n)
	for i, f := range flows {
		s.remaining[i] = float64(f.Bytes)
	}
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
	active := 0
	for _, f := range fls {
		if remaining[f] > 0 {
			active++
		}
	}
	now := 0.0
	//lightpath:hotloop
	for active > 0 {
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
				active--
				s.active[f] = false
			}
		}
	}
	return nil
}
