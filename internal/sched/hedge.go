package sched

import (
	"fmt"
	"math"
)

// HedgePolicy runs a panel of hysteresis experts with different
// thresholds under multiplicative weights ("hedge"): each phase, every
// expert simulates its own virtual configuration trajectory and is
// charged its would-be cost; the fabric follows the currently
// best-weighted expert. This is the online-learning answer to §1/§5's
// open question — no single threshold suits all traffic, so learn it.
type HedgePolicy struct {
	p       Params
	experts []HysteresisPolicy
	virtual []Config
	weights []float64
	// eta is the learning rate of the multiplicative update.
	eta float64
}

// NewHedgePolicy builds the panel over the given thresholds (defaults
// to {0.5, 1, 2, 4} when none are provided).
func NewHedgePolicy(p Params, thresholds ...float64) *HedgePolicy {
	if len(thresholds) == 0 {
		thresholds = []float64{0.5, 1, 2, 4}
	}
	h := &HedgePolicy{p: p, eta: 0.5}
	for _, th := range thresholds {
		h.experts = append(h.experts, HysteresisPolicy{P: p, Threshold: th})
		h.virtual = append(h.virtual, NewConfig())
		h.weights = append(h.weights, 1)
	}
	return h
}

// Name implements Policy.
func (h *HedgePolicy) Name() string { return fmt.Sprintf("hedge-%d", len(h.experts)) }

// Next implements Policy.
func (h *HedgePolicy) Next(current Config, d Demand) Config {
	// Charge every expert its virtual cost for this phase and update
	// the weights.
	costs := make([]float64, len(h.experts))
	maxCost := 0.0
	for i, e := range h.experts {
		next := e.Next(h.virtual[i], d)
		serve, ok := h.p.ServeTime(d, next)
		if !ok {
			next = DemandConfig(d)
			serve, _ = h.p.ServeTime(d, next)
		}
		cost := float64(serve)
		if !next.Equal(h.virtual[i]) {
			cost += float64(h.p.Reconfig)
		}
		h.virtual[i] = next
		costs[i] = cost
		if cost > maxCost {
			maxCost = cost
		}
	}
	best := 0
	if maxCost > 0 {
		for i := range h.experts {
			h.weights[i] *= math.Exp(-h.eta * costs[i] / maxCost)
		}
		// Renormalize to dodge underflow on long runs.
		sum := 0.0
		for _, w := range h.weights {
			sum += w
		}
		for i := range h.weights {
			h.weights[i] /= sum
			if h.weights[i] > h.weights[best] {
				best = i
			}
		}
	}
	// Follow the leader's decision, applied to the real state.
	return h.experts[best].Next(current, d)
}
