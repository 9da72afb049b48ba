package experiments

import (
	"fmt"
	"math"
	"strings"

	"lightpath/internal/alloc"
	"lightpath/internal/chaos"
	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// This file is the failure-lifecycle experiment: seed-driven chip
// failures injected mid-collective, recovered by optical splicing, and
// measured for MTTR, goodput under failure, and blast radius. It
// re-derives the paper's §4.2 blast-radius claim dynamically — not by
// counting chips on paper, but by actually stalling and repairing a
// running AllReduce.

// chaosHorizon is the simulated window the fault engine schedules
// arrivals in.
const chaosHorizon unit.Seconds = 1.0

// chaosChipMTBF makes chip failures frequent enough that a one-second
// horizon yields a comfortable surplus of trials.
const chaosChipMTBF unit.Seconds = 10 * unit.Millisecond

// ChaosTrial is one fault-injected AllReduce run.
type ChaosTrial struct {
	// Victim is the chip the engine killed; FailStep is the schedule
	// step the failure interrupted; FaultTime is the engine's arrival
	// time within the horizon.
	Victim    int
	FailStep  int
	FaultTime unit.Seconds
	// Replacement is the spare spliced in.
	Replacement int
	// MTTR and Repair are the recovery measurements (Repair excludes
	// detection latency).
	MTTR, Repair unit.Seconds
	// Degraded reports a repair circuit came up narrower than asked.
	Degraded bool
	// Correct reports the AllReduce still computed the right answer.
	Correct bool
	// Goodput is useful bytes over total bytes moved.
	Goodput float64
	// StallOptical and StallElectrical are the trial's blast radii
	// under the two policies.
	StallOptical, StallElectrical int
}

// ChaosResult aggregates the fault-injection campaign.
type ChaosResult struct {
	Trials []ChaosTrial
	// AllCorrect is the headline: every interrupted collective still
	// produced the exact AllReduce result.
	AllCorrect bool
	// MeanMTTR and MeanGoodput average the trials.
	MeanMTTR    unit.Seconds
	MeanGoodput float64
	// RepairBound is the analytic repair floor (one MZI settling
	// interval); WithinBound reports every trial repaired within twice
	// it.
	RepairBound unit.Seconds
	WithinBound bool
	// BlastRatio is the mean electrical stall set over the mean
	// optical one — the dynamic blast-radius shrinkage.
	BlastRatio float64
}

// String renders the campaign summary and per-trial table.
func (r ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failure lifecycle: %d chip failures injected mid-AllReduce (Fig 6a rack)\n", len(r.Trials))
	fmt.Fprintf(&b, "  all collectives completed correctly: %v\n", r.AllCorrect)
	fmt.Fprintf(&b, "  mean MTTR: %v (repair bound %v, all repairs within 2x: %v)\n",
		r.MeanMTTR, r.RepairBound, r.WithinBound)
	fmt.Fprintf(&b, "  mean goodput under failure: %.1f%%\n", r.MeanGoodput*100)
	fmt.Fprintf(&b, "  blast radius: %.1fx smaller than electrical rack migration\n", r.BlastRatio)
	for i, tr := range r.Trials {
		fmt.Fprintf(&b, "  trial %d: chip %d died in step %d -> chip %d spliced in, MTTR %v, goodput %.1f%%, stall %d vs %d\n",
			i, tr.Victim, tr.FailStep, tr.Replacement, tr.MTTR, tr.Goodput*100,
			tr.StallOptical, tr.StallElectrical)
	}
	return b.String()
}

// CSV implements Tabular: one row per trial.
func (r ChaosResult) CSV() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Trials))
	for i, tr := range r.Trials {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", tr.Victim),
			fmt.Sprintf("%d", tr.FailStep),
			f64(tr.FaultTime.Micros()),
			fmt.Sprintf("%d", tr.Replacement),
			f64(tr.MTTR.Micros()),
			f64(tr.Repair.Micros()),
			fmt.Sprintf("%v", tr.Degraded),
			fmt.Sprintf("%v", tr.Correct),
			f64(tr.Goodput),
			fmt.Sprintf("%d", tr.StallOptical),
			fmt.Sprintf("%d", tr.StallElectrical),
		})
	}
	return []string{"trial", "victim", "fail_step", "fault_time_us", "replacement",
		"mttr_us", "repair_us", "degraded", "correct", "goodput",
		"stall_optical", "stall_electrical"}, rows
}

// Chaos runs the fault-injection campaign: the chaos engine schedules
// chip-failure arrivals over the horizon, and each of the first
// `trials` arrivals is replayed as a mid-collective failure of the
// Figure 6a victim slice — the engine decides who dies and when, the
// fabric recovers, and the trial records whether the math survived.
func Chaos(seed uint64, trials int, bufferBytes unit.Bytes) (ChaosResult, error) {
	if trials < 1 {
		return ChaosResult{}, fmt.Errorf("experiments: chaos trials %d < 1", trials)
	}
	sc, err := alloc.Fig6a()
	if err != nil {
		return ChaosResult{}, err
	}
	const victimSlice = 1 // Slice-3, the 4x4 plane holding Figure 6a's failure
	sliceChips := sc.Alloc.Slices()[victimSlice].Chips(sc.Torus)

	// The engine draws arrival times and victims from split streams;
	// chips here index the victim slice's chip list.
	eng, err := chaos.NewEngine(seed, chaos.Components{
		Chips:           len(sliceChips),
		SwitchesPerTile: 4,
		Wafers:          2,
		Rows:            8,
		Cols:            8,
		Trunks:          2,
	}, chaos.Rates{MTBF: chipFailureOnly()})
	if err != nil {
		return ChaosResult{}, err
	}
	faults := eng.Schedule(chaosHorizon)
	var chipFaults []chaos.Fault
	for _, f := range faults {
		if f.Class == chaos.ChipFailure {
			chipFaults = append(chipFaults, f)
		}
	}
	if len(chipFaults) < trials {
		return ChaosResult{}, fmt.Errorf("experiments: engine scheduled %d chip failures, need %d", len(chipFaults), trials)
	}

	// Planning is deterministic given the seed and allocation, so the
	// campaign plans the collective once on a probe fabric; each trial
	// receives its own Clone (the repair splice mutates the schedule).
	opts := core.Options{RackShape: sc.Torus.Shape(), Seed: seed, Audit: invariant.Paranoid}
	probe, err := core.New(opts)
	if err != nil {
		return ChaosResult{}, err
	}
	probePlan, err := probe.PlanAllReduce(sc.Alloc, victimSlice, bufferBytes)
	if err != nil {
		return ChaosResult{}, err
	}
	numSteps := probePlan.Schedule.NumSteps()

	res := ChaosResult{AllCorrect: true, WithinBound: true}
	var sumMTTR, sumGoodput float64
	var sumOpt, sumElec float64
	pol := core.DefaultChaosPolicy()
	type chaosOutcome struct {
		trial    ChaosTrial
		bound    unit.Seconds
		overTwox bool
	}
	// Trials are independent: each builds its own hardware and its
	// inputs (fault arrival, fail step) are precomputed above, so the
	// engine fans them out and the loop below merges in trial order.
	outcomes, err := engine.Map(trials, func(i int) (chaosOutcome, error) {
		f := chipFaults[i]
		victim := sliceChips[f.Chip]
		// Collectives run back-to-back, each lasting CleanTime; the
		// arrival's phase within the collective it interrupts picks the
		// step — a seed-stable mapping that spreads failures across the
		// schedule.
		phase := math.Mod(float64(f.Time), float64(probePlan.OpticalTime)) / float64(probePlan.OpticalTime)
		failStep := int(phase * float64(numSteps))
		if failStep >= numSteps {
			failStep = numSteps - 1
		}

		// Fresh hardware per trial: failures must not accumulate
		// across the campaign.
		fabric, err := core.New(opts)
		if err != nil {
			return chaosOutcome{}, err
		}
		outcome, err := fabric.RunPlannedAllReduceUnderFault(sc.Alloc, probePlan.Clone(), victim, failStep, pol)
		if err != nil {
			return chaosOutcome{}, fmt.Errorf("experiments: trial %d (chip %d, step %d): %w", i, victim, failStep, err)
		}
		return chaosOutcome{
			trial: ChaosTrial{
				Victim:          victim,
				FailStep:        failStep,
				FaultTime:       f.Time,
				Replacement:     outcome.Replacement,
				MTTR:            outcome.MTTR,
				Repair:          outcome.RepairTime,
				Degraded:        outcome.Degraded,
				Correct:         outcome.Correct,
				Goodput:         outcome.GoodputFraction,
				StallOptical:    outcome.StallOptical,
				StallElectrical: outcome.StallElectrical,
			},
			bound:    outcome.RepairBound,
			overTwox: outcome.RepairTime > 2*outcome.RepairBound,
		}, nil
	})
	if err != nil {
		return ChaosResult{}, err
	}
	for _, o := range outcomes {
		res.RepairBound = o.bound
		res.AllCorrect = res.AllCorrect && o.trial.Correct
		if o.overTwox {
			res.WithinBound = false
		}
		res.Trials = append(res.Trials, o.trial)
		sumMTTR += float64(o.trial.MTTR)
		sumGoodput += o.trial.Goodput
		sumOpt += float64(o.trial.StallOptical)
		sumElec += float64(o.trial.StallElectrical)
	}
	n := float64(trials)
	res.MeanMTTR = unit.Seconds(sumMTTR / n)
	res.MeanGoodput = sumGoodput / n
	if sumOpt > 0 {
		res.BlastRatio = sumElec / sumOpt
	}
	return res, nil
}

// chipFailureOnly builds a rate table where only whole-chip failures
// arrive — the campaign's faults — leaving the other classes silent.
func chipFailureOnly() [chaos.NumClasses]unit.Seconds {
	var mtbf [chaos.NumClasses]unit.Seconds
	mtbf[chaos.ChipFailure] = chaosChipMTBF
	return mtbf
}
