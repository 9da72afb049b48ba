package sched

import (
	"fmt"

	"lightpath/internal/unit"
)

// Policy decides the circuit configuration before each phase.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Next returns the configuration for the coming demand, given the
	// currently installed one.
	Next(current Config, d Demand) Config
}

// Outcome is the result of running a policy over a workload.
type Outcome struct {
	// Reconfigs counts configuration changes (each costing r).
	Reconfigs int
	// ServeTime is the total data-movement time; Total adds the
	// reconfiguration delays.
	ServeTime, Total unit.Seconds
	// Unserveable counts phases the policy's configuration could not
	// serve at all (disconnected demand); each forces an emergency
	// reconfiguration to the demand's own configuration.
	Unserveable int
}

// Run executes the workload under the policy. The fabric starts with
// an empty configuration (the first phase always pays r). If a chosen
// configuration cannot serve the phase (or violates the port budget),
// the runner falls back to the demand's direct configuration and
// counts the phase Unserveable.
func Run(p Params, policy Policy, phases []Demand) (Outcome, error) {
	var out Outcome
	current := NewConfig()
	for i, d := range phases {
		next := policy.Next(current, d)
		if !p.validConfig(next) {
			return out, fmt.Errorf("sched: %s phase %d: configuration exceeds port limit %d",
				policy.Name(), i, p.PortLimit)
		}
		serve, ok := p.ServeTime(d, next)
		if !ok {
			out.Unserveable++
			next = DemandConfig(d)
			serve, ok = p.ServeTime(d, next)
			if !ok {
				return out, fmt.Errorf("sched: phase %d unserveable even directly", i)
			}
		}
		if !next.Equal(current) {
			out.Reconfigs++
			out.Total += p.Reconfig
			current = next
		}
		out.ServeTime += serve
		out.Total += serve
	}
	return out, nil
}

// EagerPolicy reconfigures to the demand's direct circuits every
// phase: minimal serve time, maximal reconfiguration count.
type EagerPolicy struct{}

// Name implements Policy.
func (EagerPolicy) Name() string { return "eager" }

// Next implements Policy.
func (EagerPolicy) Next(_ Config, d Demand) Config { return DemandConfig(d) }

// StaticPolicy never reconfigures away from a fixed connected
// configuration (a ring over the chips): zero reconfigurations after
// the first, everything relayed.
type StaticPolicy struct {
	Ring Config
}

// NewStaticPolicy builds the static-ring policy over the chips.
func NewStaticPolicy(chips []int) StaticPolicy {
	return StaticPolicy{Ring: RingConfig(chips)}
}

// Name implements Policy.
func (StaticPolicy) Name() string { return "static-ring" }

// Next implements Policy.
func (s StaticPolicy) Next(Config, Demand) Config { return s.Ring }

// HysteresisPolicy reconfigures only when serving the demand on the
// installed configuration is estimated to cost more than Threshold
// times serving it on fresh direct circuits plus the reconfiguration
// delay — the explicit r-versus-stretch trade-off of §1/§5.
type HysteresisPolicy struct {
	P         Params
	Threshold float64
}

// Name implements Policy.
func (h HysteresisPolicy) Name() string { return fmt.Sprintf("hysteresis-%.1f", h.Threshold) }

// Next implements Policy.
func (h HysteresisPolicy) Next(current Config, d Demand) Config {
	stay, ok := h.P.ServeTime(d, current)
	if !ok {
		return DemandConfig(d)
	}
	direct, ok := h.P.ServeTime(d, DemandConfig(d))
	if !ok {
		return current
	}
	if float64(stay) > h.Threshold*float64(direct+h.P.Reconfig) {
		return DemandConfig(d)
	}
	return current
}

// OfflineOptimal computes, by dynamic programming over the whole
// phase sequence, the minimum-total-time configuration schedule among
// the candidate family: each phase's direct configuration, the static
// ring, and the running unions of consecutive demands (the
// configurations a caching policy can hold) while they fit the port
// budget. It is the clairvoyant baseline the online policies are
// judged against; within this family no online policy can beat it.
func OfflineOptimal(p Params, phases []Demand, chips []int) (Outcome, error) {
	// Candidate configurations.
	var candidates []Config
	seen := map[string]bool{}
	addCand := func(c Config) {
		if k := c.Key(); !seen[k] && p.validConfig(c) {
			seen[k] = true
			candidates = append(candidates, c)
		}
	}
	addCand(RingConfig(chips))
	for _, d := range phases {
		addCand(DemandConfig(d))
	}
	// Running unions: from each start phase, grow the union forward
	// until the port budget breaks.
	for start := range phases {
		union := NewConfig()
		for _, d := range phases[start:] {
			for e := range DemandConfig(d).edges {
				union.edges[e] = true
			}
			if !p.validConfig(union) {
				break
			}
			cp := NewConfig()
			for e := range union.edges {
				cp.edges[e] = true
			}
			addCand(cp)
		}
	}
	if len(candidates) == 0 {
		return Outcome{}, fmt.Errorf("sched: no valid candidate configurations")
	}

	const inf = unit.Seconds(1 << 62)
	// best[c] = minimal total time ending phase i with configuration c.
	best := make([]unit.Seconds, len(candidates))
	reconf := make([]int, len(candidates))
	serveTot := make([]unit.Seconds, len(candidates))
	for i := range best {
		best[i] = 0
	}
	first := true
	for _, d := range phases {
		nb := make([]unit.Seconds, len(candidates))
		nr := make([]int, len(candidates))
		ns := make([]unit.Seconds, len(candidates))
		for ci, c := range candidates {
			serve, ok := p.ServeTime(d, c)
			if !ok {
				nb[ci] = inf
				continue
			}
			// Transition from the best predecessor.
			bestPrev, bestR, bestS := inf, 0, unit.Seconds(0)
			for pi := range candidates {
				if best[pi] >= inf {
					continue
				}
				cost := best[pi]
				r := reconf[pi]
				if first || pi != ci {
					cost += p.Reconfig
					r++
				}
				if cost < bestPrev {
					bestPrev, bestR, bestS = cost, r, serveTot[pi]
				}
			}
			if bestPrev >= inf {
				nb[ci] = inf
				continue
			}
			nb[ci] = bestPrev + serve
			nr[ci] = bestR
			ns[ci] = bestS + serve
		}
		best, reconf, serveTot = nb, nr, ns
		first = false
	}
	var out Outcome
	bestTotal := inf
	for ci := range candidates {
		if best[ci] < bestTotal {
			bestTotal = best[ci]
			out.Total = best[ci]
			out.Reconfigs = reconf[ci]
			out.ServeTime = serveTot[ci]
		}
	}
	if bestTotal >= inf {
		return Outcome{}, fmt.Errorf("sched: no feasible schedule")
	}
	return out, nil
}
