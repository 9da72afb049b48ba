package netsim

import (
	"fmt"

	"lightpath/internal/collective"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// This file executes collective Schedules on the simulator. Steps run
// with barrier semantics (step s+1 starts when every step-s transfer
// has completed), which is how bucket/ring collectives synchronize.

// ExecOptions configures schedule execution.
type ExecOptions struct {
	// Alpha is the per-step software overhead added to every step.
	Alpha unit.Seconds
	// Reconfig is added before reconfiguration-marked steps (optical
	// execution); electrical executors pass zero.
	Reconfig unit.Seconds
}

// Executor runs collective schedules on the fluid simulator, reusing
// every per-step structure — the flow list, the capacity map, the
// per-chip payload tally, and the solver's own scratch — across steps
// and calls. A zero Executor is ready to use; it must not be shared
// between goroutines.
type Executor struct {
	sim     Sim[torus.Link]
	flows   []Flow[torus.Link]
	caps    map[torus.Link]unit.BitRate
	perChip map[int]unit.Bytes
	// pathBuf backs the single-link default paths of one step's flows;
	// it is sized to the step's transfer count up front so the Via
	// subslices handed to the solver are never invalidated by growth.
	pathBuf []torus.Link
}

// Electrical runs the schedule on a direct-connect torus where every
// transfer occupies the single directed link between its endpoints
// (they must be torus-adjacent) and each link has capacity linkBW
// (= B/D_phys). Concurrent transfers crossing the same link share it —
// the congestion the paper defines in §4.1. Each step is one Sim.Run,
// so transfers that share no link, directly or through other
// transfers, advance on separate clocks; the step lasts until its
// last transfer completes.
//
// pathOf, when non-nil, overrides the per-transfer path (used by the
// failure experiments to route repair detours over multi-hop paths).
func (e *Executor) Electrical(s *collective.Schedule, t *torus.Torus, linkBW unit.BitRate, pathOf func(collective.Transfer) []torus.Link, opt ExecOptions) (unit.Seconds, error) {
	if e.caps == nil {
		e.caps = make(map[torus.Link]unit.BitRate)
	}
	var total unit.Seconds
	for si, step := range s.Steps {
		e.flows = e.flows[:0]
		clear(e.caps)
		if cap(e.pathBuf) < len(step.Transfers) {
			e.pathBuf = make([]torus.Link, 0, len(step.Transfers))
		}
		e.pathBuf = e.pathBuf[:0]
		for _, tr := range step.Transfers {
			var path []torus.Link
			if pathOf != nil {
				path = pathOf(tr)
			} else {
				l := torus.Link{From: tr.From, To: tr.To}
				if t != nil && t.LinkDim(l) < 0 {
					return 0, fmt.Errorf("netsim: step %d transfer %v is not torus-adjacent", si, l)
				}
				e.pathBuf = append(e.pathBuf, l)
				path = e.pathBuf[len(e.pathBuf)-1:]
			}
			for _, l := range path {
				e.caps[l] = linkBW
			}
			e.flows = append(e.flows, Flow[torus.Link]{Bytes: tr.Bytes(s.ElemBytes), Via: path})
		}
		res, err := e.sim.Run(e.flows, e.caps)
		if err != nil {
			return 0, fmt.Errorf("netsim: step %d: %w", si, err)
		}
		total += opt.Alpha + res.Makespan
	}
	return total, nil
}

// Optical runs the schedule on a photonic fabric where every transfer
// rides a dedicated contention-free circuit of capacity circuitBW
// (= B / ring dimensions in use, per the redirection model).
// Reconfiguration-marked steps pay opt.Reconfig before data moves.
func (e *Executor) Optical(s *collective.Schedule, circuitBW unit.BitRate, opt ExecOptions) (unit.Seconds, error) {
	if circuitBW <= 0 {
		return 0, fmt.Errorf("netsim: non-positive circuit bandwidth %v", circuitBW)
	}
	if e.perChip == nil {
		e.perChip = make(map[int]unit.Bytes)
	}
	var total unit.Seconds
	for _, step := range s.Steps {
		// Dedicated circuits: flows are independent; the step lasts as
		// long as its largest per-chip payload.
		clear(e.perChip)
		for _, tr := range step.Transfers {
			e.perChip[tr.From] += tr.Bytes(s.ElemBytes)
		}
		var worst unit.Seconds
		for _, b := range e.perChip {
			if t := circuitBW.TimeFor(b); t > worst {
				worst = t
			}
		}
		if step.Reconfig {
			total += opt.Reconfig
		}
		total += opt.Alpha + worst
	}
	return total, nil
}
