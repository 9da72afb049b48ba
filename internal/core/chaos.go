package core

import (
	"fmt"
	"slices"
	"sort"

	"lightpath/internal/chaos"
	"lightpath/internal/collective"
	"lightpath/internal/phy"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// This file is the top of the failure lifecycle: it executes a planned
// AllReduce step by step against real buffers and a simulated clock,
// kills a chip mid-step, and drives the recovery — detect the failure,
// tear down the victim's circuits, splice a replacement chip in over
// fresh optical circuits, restore the victim's checkpoint, and resume
// the collective from the interrupted step. The run proves the paper's
// §4.2 argument dynamically: the collective still computes the right
// answer, recovery costs microseconds (MZI settling, not rack
// migration), and only the victim's slice ever stalls.

// failFraction is how far through the interrupted step's data phase
// the chip dies. Fixed (rather than sampled) so recovery accounting is
// reproducible byte for byte.
const failFraction = 0.5

// detection is the time between the chip dying and the fabric manager
// acting on it: a heartbeat timeout plus control-plane latency, a
// handful of round trips at rack scale.
const detection = 10 * unit.Microsecond

// repairWidth is the wavelength width requested for repair circuits
// (the Figure 7 width); a splice never narrows it.
const repairWidth = 4

// ChaosOutcome reports one fault-injected AllReduce run.
type ChaosOutcome struct {
	// Correct reports that every surviving chip's final buffer equals
	// the reference reduction of the original inputs — the victim's
	// contribution included.
	Correct bool
	// Victim and Replacement are the failed chip and the spare spliced
	// in for it.
	Victim, Replacement int
	// RepairCircuits counts the optical circuits establishing the
	// replacement's connectivity, each at the full repair width.
	RepairCircuits int
	// StepsTotal and StepsReplayed count schedule steps executed and
	// re-executed after rollback to the last completed step.
	StepsTotal, StepsReplayed int
	// CleanTime is the fault-free completion time of the same
	// schedule; TotalTime is the completion time with the fault,
	// detection, repair and replay included.
	CleanTime, TotalTime unit.Seconds
	// DetectTime and RepairTime split the MTTR into the detection
	// latency and the optical repair (circuit establishment
	// + MZI settling); MTTR is their sum.
	DetectTime, RepairTime, MTTR unit.Seconds
	// RepairBound is the analytic floor of RepairTime: one MZI
	// settling interval, since circuit establishment is control-plane
	// work off the data path. The tests assert RepairTime is within
	// twice this bound.
	RepairBound unit.Seconds
	// StallOptical and StallElectrical are the blast radii: chips
	// stalled while recovering under optical splicing (the victim's
	// slice) versus the electrical rack-migration policy (every chip
	// in the rack).
	StallOptical, StallElectrical int
	// WastedBytes is the traffic of the interrupted step that had to
	// be replayed; GoodputFraction is useful over total bytes moved.
	WastedBytes     unit.Bytes
	GoodputFraction float64
}

// String renders the outcome.
func (o *ChaosOutcome) String() string {
	verdict := "CORRECT"
	if !o.Correct {
		verdict = "WRONG"
	}
	return fmt.Sprintf(
		"chip %d failed mid-collective; replacement %d spliced in over %d circuits\n"+
			"  result: %s after %d/%d steps replayed\n"+
			"  time: %v clean -> %v with fault (MTTR %v = %v detect + %v repair; bound %v)\n"+
			"  stall set: %d chips optical vs %d electrical; goodput %.1f%%\n",
		o.Victim, o.Replacement, o.RepairCircuits,
		verdict, o.StepsReplayed, o.StepsTotal,
		o.CleanTime, o.TotalTime, o.MTTR, o.DetectTime, o.RepairTime, o.RepairBound,
		o.StallOptical, o.StallElectrical, o.GoodputFraction*100)
}

// RunAllReduceUnderFault plans an AllReduce over slice si, executes it
// against real buffers, and kills the victim chip partway through step
// failStep. Recovery tears down the victim's circuits, establishes
// repair circuits from a free chip to every peer the victim still had
// to exchange with, restores the victim's last step-boundary
// checkpoint onto the replacement, and resumes from the interrupted
// step. The outcome carries correctness, MTTR and blast-radius
// measurements; it comes with an error wrapping invariant.ErrViolated
// when the fabric's auditor has recorded a violation.
func (f *Fabric) RunAllReduceUnderFault(a *torus.Allocation, si int, bufferBytes unit.Bytes, victim, failStep int) (*ChaosOutcome, error) {
	plan, err := f.PlanAllReduce(a, si, bufferBytes)
	if err != nil {
		return nil, err
	}
	return f.RunPlannedAllReduceUnderFault(a, plan, victim, failStep)
}

// RunPlannedAllReduceUnderFault is RunAllReduceUnderFault for a
// collective that is already planned. Planning is deterministic given
// the fabric seed and allocation, so a fault campaign plans once and
// hands each trial a Clone of the plan — the repair splice mutates the
// plan's schedule in place. The plan must have been produced by a
// fabric in the same pristine state as f (same seed, no prior faults).
func (f *Fabric) RunPlannedAllReduceUnderFault(a *torus.Allocation, plan *CollectivePlan, victim, failStep int) (*ChaosOutcome, error) {
	sched := plan.Schedule
	chips := sched.Chips()
	if !slices.Contains(chips, victim) {
		return nil, fmt.Errorf("core: victim chip %d is not part of the collective", victim)
	}
	if failStep < 0 || failStep >= sched.NumSteps() {
		return nil, fmt.Errorf("core: fail step %d out of range [0, %d)", failStep, sched.NumSteps())
	}

	circuitBW := f.params.ChipBandwidth / unit.BitRate(plan.ActiveDims)
	// Timing and byte figures come from sched; the buffers run on its
	// atoms (Schedule.Atoms validates sched), so a check of one value
	// per atom gives the verdict a check of every element would.
	atoms, err := sched.Atoms()
	if err != nil {
		return nil, err
	}
	// Deterministic per-chip inputs: any values work (the check is
	// against the exact reference reduction); a chip- and
	// atom-dependent ramp catches swapped or stale buffers.
	st := collective.NewState(chips, atoms.N, func(c, i int) float64 {
		return float64(c+1) + float64(i)/float64(atoms.N)
	})
	ref := collective.ReduceAcross(st, chips, atoms.N)

	out := &ChaosOutcome{
		Victim:      victim,
		Replacement: -1,
		StepsTotal:  sched.NumSteps(),
		CleanTime:   plan.OpticalTime,
		DetectTime:  detection,
		RepairBound: phy.ReconfigLatency,
	}

	var clock unit.Seconds
	// Healthy prefix: steps before the failure complete normally.
	for i := 0; i < failStep; i++ {
		if err := f.executeStep(st, atoms, i); err != nil {
			return nil, err
		}
		clock += f.stepTime(sched, i, circuitBW)
	}

	// The victim dies failFraction of the way through failStep's data
	// phase. Barrier semantics discard the step's partial transfers:
	// every chip rolls back to the step boundary and the step replays.
	dataTime := f.stepDataTime(sched, failStep, circuitBW)
	clock += f.stepOverhead(sched, failStep) + unit.Seconds(failFraction*float64(dataTime))
	out.WastedBytes = unit.Bytes(failFraction * float64(stepBytes(sched, failStep)))
	tFault := clock

	// Detection: the slice stalls until the manager learns of the
	// failure and acts.
	clock += detection

	// Hardware: mark the chip dead and tear down its circuits.
	if _, err := f.alloc.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: victim}); err != nil {
		return nil, err
	}

	// The replacement must reconnect to every peer the victim still
	// owes traffic (the interrupted step replays, so it counts).
	peers := victimPeers(sched, victim, failStep)
	repl, circuits, err := f.spliceReplacement(a, chips, peers, clock)
	if err != nil {
		return nil, err
	}
	out.Replacement = repl
	out.RepairCircuits = len(circuits)
	repairedAt := clock
	for _, c := range circuits {
		if r := c.ReadyAt(); r > repairedAt {
			repairedAt = r
		}
	}
	out.RepairTime = repairedAt - clock
	out.MTTR = repairedAt - tFault
	clock = repairedAt

	// Logical splice: the replacement takes over the victim's role in
	// every remaining step and inherits its step-boundary checkpoint.
	for _, s := range []*collective.Schedule{sched, atoms} {
		remapVictim(s, victim, repl, failStep)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: schedule invalid after splice: %w", err)
		}
	}
	st[repl] = st[victim]
	delete(st, victim)
	for i := range chips {
		if chips[i] == victim {
			chips[i] = repl
		}
	}
	sort.Ints(chips)

	// Resume: replay the interrupted step, then the rest.
	for i := failStep; i < sched.NumSteps(); i++ {
		if err := f.executeStep(st, atoms, i); err != nil {
			return nil, err
		}
		clock += f.stepTime(sched, i, circuitBW)
	}
	out.StepsReplayed = sched.NumSteps() - failStep
	out.TotalTime = clock
	out.Correct = collective.CheckAllReduce(st, chips, ref) == nil
	out.StallOptical = len(chips)
	out.StallElectrical = f.torus.Size()
	useful := float64(sched.TotalBytes())
	out.GoodputFraction = useful / (useful + float64(out.WastedBytes))
	return out, f.aud.Err()
}

// spliceReplacement picks a free, healthy chip and establishes repair
// circuits from it to every peer, trying candidates in ascending ID
// order and rolling back a candidate's circuits when any peer cannot
// be reached at repairWidth.
func (f *Fabric) spliceReplacement(a *torus.Allocation, inCollective, peers []int, now unit.Seconds) (int, []*route.Circuit, error) {
	var candidates []int
	for _, c := range a.FreeChips() {
		if slices.Contains(inCollective, c) {
			continue
		}
		if c < f.rack.NumChips() && f.rack.TileOf(c).ChipHealthy() {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return -1, nil, fmt.Errorf("core: no healthy free chip to splice in")
	}
	var lastErr error
	for _, repl := range candidates {
		circuits := make([]*route.Circuit, 0, len(peers))
		ok := true
		for _, peer := range peers {
			c, err := f.alloc.Establish(route.Request{A: repl, B: peer, Width: repairWidth}, now)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			circuits = append(circuits, c)
		}
		if ok {
			return repl, circuits, nil
		}
		for _, c := range circuits {
			f.alloc.Release(c)
		}
	}
	return -1, nil, fmt.Errorf("core: optical splice failed for every free chip: %w", lastErr)
}

// victimPeers returns the distinct chips the victim exchanges traffic
// with from step failStep onward, ascending.
func victimPeers(s *collective.Schedule, victim, failStep int) []int {
	set := map[int]bool{}
	for _, step := range s.Steps[failStep:] {
		for _, tr := range step.Transfers {
			if tr.From == victim {
				set[tr.To] = true
			}
			if tr.To == victim {
				set[tr.From] = true
			}
		}
	}
	peers := make([]int, 0, len(set))
	for p := range set {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return peers
}

// remapVictim rewrites the victim to the replacement in every step
// from failStep onward, in place.
func remapVictim(s *collective.Schedule, victim, repl, failStep int) {
	for si := failStep; si < len(s.Steps); si++ {
		for ti := range s.Steps[si].Transfers {
			tr := &s.Steps[si].Transfers[ti]
			if tr.From == victim {
				tr.From = repl
			}
			if tr.To == victim {
				tr.To = repl
			}
		}
	}
}

// executeStep runs one step of the schedule against the buffers,
// through the fabric's reusable interpreter. The caller validates the
// schedule (once up front, again after any splice).
func (f *Fabric) executeStep(st collective.State, s *collective.Schedule, i int) error {
	if err := f.interp.ExecuteStep(st, s, i); err != nil {
		return fmt.Errorf("core: step %d: %w", i, err)
	}
	return nil
}

// stepOverhead is the fixed cost paid before a step's data moves.
func (f *Fabric) stepOverhead(s *collective.Schedule, i int) unit.Seconds {
	t := f.params.Alpha
	if s.Steps[i].Reconfig {
		t += f.params.Reconfig
	}
	return t
}

// stepDataTime is the data phase of one step on dedicated circuits:
// the largest per-chip payload at circuit bandwidth (the
// netsim.Executor.Optical model).
func (f *Fabric) stepDataTime(s *collective.Schedule, i int, circuitBW unit.BitRate) unit.Seconds {
	if len(f.stepChipBytes) < f.torus.Size() {
		f.stepChipBytes = make([]unit.Bytes, f.torus.Size())
	}
	touched := f.stepChipTouched[:0]
	for _, tr := range s.Steps[i].Transfers {
		if f.stepChipBytes[tr.From] == 0 {
			touched = append(touched, tr.From)
		}
		f.stepChipBytes[tr.From] += tr.Bytes(s.ElemBytes)
	}
	// worst is a max over per-chip tallies — order-independent, so the
	// touched-list walk gives the same value the map version did.
	var worst unit.Seconds
	for _, c := range touched {
		if t := circuitBW.TimeFor(f.stepChipBytes[c]); t > worst {
			worst = t
		}
		f.stepChipBytes[c] = 0
	}
	f.stepChipTouched = touched[:0]
	return worst
}

// stepTime is a step's full cost: overhead plus data.
func (f *Fabric) stepTime(s *collective.Schedule, i int, circuitBW unit.BitRate) unit.Seconds {
	return f.stepOverhead(s, i) + f.stepDataTime(s, i, circuitBW)
}

// stepBytes sums a step's transfer payloads.
func stepBytes(s *collective.Schedule, i int) unit.Bytes {
	var total unit.Bytes
	for _, tr := range s.Steps[i].Transfers {
		total += tr.Bytes(s.ElemBytes)
	}
	return total
}
