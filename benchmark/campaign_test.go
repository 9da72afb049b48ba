package benchmark

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/ctrl/loadgen"
	"lightpath/internal/invariant"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// A campaign round is one trial of the controller load campaign's X14
// profile, and the timed rounds of a run are distinct trials, seeded
// like the controller campaign's trials. A trial's cost depends on its
// chaos draws (which chips and fibres die): the wall time of single
// 500-arrival trials differs by up to ±15% between seeds, reproducibly,
// so a run that repeated one trial would carry that whole difference
// into the spread between runs with different seeds. A rate over 20
// trials carries about a fifth of it.
const trialStride = 0x9e3779b97f4a7c15 // the controller campaign's per-trial seed step

// campaignArrivalRate sizes a trial: fresh arrivals per agent per
// second of the run's budget, 500 per trial at a 25 s budget.
const campaignArrivalRate = 420

// campaignFaults is the fault count a trial's chaos MTBFs are scaled to
// expect; only trials whose schedule holds at least minCampaignFaults
// faults are run, so every round applies at least that many.
const (
	campaignFaults    = 10
	minCampaignFaults = 5
)

// campaignCheckpointEvery is the checkpoint cadence in events. Trials
// with fewer than four times as many arrivals (only tiny smoke runs)
// checkpoint every quarter of their arrivals instead, so they still
// write checkpoints.
const campaignCheckpointEvery = 4096

// campaignConfig is the controller load campaign's per-trial profile
// (experiments.controllerTrialConfig, the X14 trial) at 128 agents and
// the given arrivals per agent, with every chaos MTBF scaled by the
// same factor so the trial expects campaignFaults faults.
func campaignConfig(seed uint64, arrivals int) loadgen.Config {
	var rates chaos.Rates
	rates.MTBF[chaos.LaserDeath] = 500 * unit.Millisecond
	rates.MTBF[chaos.MZIStuck] = unit.Second
	rates.MTBF[chaos.WaveguideLoss] = 500 * unit.Millisecond
	rates.MTBF[chaos.FiberCut] = 2 * unit.Second
	rates.MTBF[chaos.ChipFailure] = 1500 * unit.Millisecond
	const interarrival = 1300 * unit.Microsecond
	perSecond := 0.0
	for _, m := range rates.MTBF {
		if m > 0 {
			perSecond += 1 / float64(m)
		}
	}
	scale := campaignHorizon(arrivals, interarrival) * perSecond / campaignFaults
	for c, m := range rates.MTBF {
		rates.MTBF[c] = unit.Seconds(float64(m) * scale)
	}
	return loadgen.Config{
		Seed:             seed,
		Agents:           128,
		ArrivalsPerAgent: arrivals,
		MeanInterarrival: interarrival,
		MeanHold:         unit.Millisecond,
		Width:            2,
		Deadline:         350 * unit.Microsecond,
		Ctrl: ctrl.Config{
			QueueCap:         64,
			EstablishService: 8 * unit.Microsecond,
			Audit:            invariant.Sampled,
		},
		Backoff: ctrl.Backoff{
			Base:       100 * unit.Microsecond,
			Factor:     2,
			Cap:        5 * unit.Millisecond,
			Jitter:     0.5,
			MaxRetries: 5,
		},
		Rates: rates,
	}
}

// campaignHorizon is the span loadgen schedules a trial's faults over:
// the nominal time its agents take to issue their arrivals.
func campaignHorizon(arrivals int, interarrival unit.Seconds) float64 {
	return float64(arrivals) * float64(interarrival)
}

// campaignTrials returns one trial config per timed round, seeded seed,
// seed+stride, ..., skipping any whose fault schedule holds fewer than
// minCampaignFaults faults.
func campaignTrials(seed uint64, seconds float64, rounds int) ([]loadgen.Config, error) {
	arrivals := max(2, int(campaignArrivalRate*seconds/float64(rounds+1)))
	probe := campaignConfig(seed, arrivals)
	srvCfg := probe.Ctrl
	srvCfg.Seed = seed
	srv, err := ctrl.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	// The same population loadgen's chaos engine draws victims from.
	rack := srv.Allocator().Rack()
	comps := chaos.Components{
		Chips:           rack.NumChips(),
		SwitchesPerTile: wafer.SwitchesPerTile,
		Wafers:          rack.NumWafers(),
		Rows:            rack.Config().Rows,
		Cols:            rack.Config().Cols,
		Trunks:          rack.NumTrunks(),
	}
	horizon := unit.Seconds(campaignHorizon(arrivals, probe.MeanInterarrival))
	var trials []loadgen.Config
	for i := uint64(0); len(trials) < rounds; i++ {
		cfg := campaignConfig(seed+i*trialStride, arrivals)
		eng, err := chaos.NewEngine(cfg.Seed, comps, cfg.Rates)
		if err != nil {
			return nil, err
		}
		if len(eng.Schedule(horizon)) >= minCampaignFaults {
			trials = append(trials, cfg)
		}
	}
	return trials, nil
}

// campaignRound is one timed round: its trial's result and wall time,
// and in a traced run the same trial's wall time without checkpoints.
type campaignRound struct {
	res     *loadgen.Result
	elapsed time.Duration
	noCkpt  time.Duration
}

func runCampaign(opts options) (*report, error) {
	// Trial 0 is the warm-up round's and is run again as the first
	// timed round, which must reproduce it exactly.
	trials, err := campaignTrials(opts.seed, opts.seconds, opts.rounds)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "lightpath-bench-campaign-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	every := min(campaignCheckpointEvery, uint64(trials[0].Agents*trials[0].ArrivalsPerAgent/4))
	ckpt := loadgen.CheckpointOptions{Path: filepath.Join(dir, "campaign.ckpt"), EveryEvents: every}

	rep := newReport()
	cal := calibration{n: canaryFor(opts)}
	var setup [][]float64
	var warm *loadgen.Result
	var timed []campaignRound
	var tw *traceWindow
	for r := 0; r <= opts.rounds; r++ {
		if !opts.trace {
			s, err := sampleSetup(func() (func() error, error) {
				if _, err := loadgen.RunCheckpointed(trials[0], loadgen.CheckpointOptions{StopAfterEvents: 1}); !errors.Is(err, loadgen.ErrStopped) {
					return nil, fmt.Errorf("campaign set-up sample: %v", err)
				}
				return nil, nil
			})
			if err != nil {
				return nil, err
			}
			setup = append(setup, s)
			if err := cal.read(); err != nil {
				return nil, err
			}
		}
		if opts.trace && r == 1 {
			if tw, err = startTraceWindow(nil, true); err != nil {
				return nil, err
			}
		}
		cfg := trials[max(0, r-1)]
		start := time.Now()
		res, err := loadgen.RunCheckpointed(cfg, ckpt)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("campaign round %d: %w", r, err)
		}
		checkTrial(rep, r, res)
		rep.Attempted += int64(res.Attempts)
		switch {
		case r == 0:
			warm = res
			continue
		case r == 1 && !reflect.DeepEqual(res, warm):
			rep.fail("round 1 repeats the warm-up trial but its result differs")
		}
		round := campaignRound{res: res, elapsed: elapsed}
		if opts.trace {
			// The same trial again without checkpoints measures the
			// checkpoint's share of a round.
			start := time.Now()
			plain, err := loadgen.RunCheckpointed(cfg, loadgen.CheckpointOptions{})
			round.noCkpt = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("campaign round %d without checkpoints: %w", r, err)
			}
			if !reflect.DeepEqual(plain, res) {
				rep.fail("round %d: the trial's result changes when it checkpoints", r)
			}
		}
		timed = append(timed, round)
	}

	if opts.trace {
		tr, err := tw.stop()
		if err != nil {
			return nil, err
		}
		probe := perConnRequests(steadyNominalRate, opts.seconds/8, opts.rounds)
		return rep, errors.Join(emitCampaignTrace(rep, trials[len(trials)-1], timed, tr, ckpt.Path, dir, probe), emitCanary(rep, opts))
	}
	if err := cal.read(); err != nil {
		return nil, err
	}
	rep.set("ops_per_s", servedPerSecond(timed, &cal), "1/s")
	rep.set("setup_s", cal.setupSeconds(setup), "s")
	return rep, nil
}

// checkTrial applies the campaign's correctness gates to one round's
// trial.
func checkTrial(rep *report, round int, res *loadgen.Result) {
	if res.Violations != 0 {
		rep.fail("round %d: invariant auditor found %d violation(s)", round, res.Violations)
	}
	if res.Leaked != 0 {
		rep.fail("round %d: %d circuit(s) leaked: their release was abandoned", round, res.Leaked)
	}
	if res.Faults < minCampaignFaults {
		rep.fail("round %d applied %d fault(s), want at least %d", round, res.Faults, minCampaignFaults)
	}
}

// servedPerSecond is the run's establishes served per wall second,
// calibrated when cal holds readings. A trial's attempts count every
// retry, and how many a trial makes depends on its chaos draws far more
// than its cost does, so served establishes are the unit of work.
func servedPerSecond(timed []campaignRound, cal *calibration) float64 {
	served := make([]int, len(timed))
	elapsed := make([]time.Duration, len(timed))
	for i, r := range timed {
		served[i], elapsed[i] = r.res.Served, r.elapsed
	}
	return cal.rate(served, elapsed)
}

// restoreCampaignServer rebuilds a trial's controller from the last
// checkpoint it wrote (the campaign checkpoint starts with its config
// digest, then the server's state).
func restoreCampaignServer(cfg loadgen.Config, path string) (*ctrl.Server, error) {
	_, payload, err := snapshot.Read(path)
	if err != nil {
		return nil, err
	}
	d := snapshot.NewDecoder(payload)
	_ = d.String() // the campaign's config digest; the server checks its own
	srvCfg := cfg.Ctrl
	srvCfg.Seed = cfg.Seed
	srv, err := ctrl.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	if err := srv.RestoreState(d); err != nil {
		return nil, fmt.Errorf("restore campaign server: %w", err)
	}
	return srv, nil
}
