package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/ctrl/loadgen"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// This file is the controller load campaign: independent trials of
// the lightpath-controller runtime under a million-request open-loop
// load with mid-run chaos faults. Each trial drives one ctrl.Server
// through loadgen's discrete-event harness — Poisson arrivals from
// 128 agents, capped-backoff retries, bounded-queue shedding,
// per-request deadlines, per-chip circuit breakers and reroute on
// fault — and reports setup-latency percentiles, shed/trip/reroute
// counts and goodput under chaos. The full campaign fields 1,024,000
// fresh requests from 1,024 agents, and its CSV is byte-identical
// across sequential/parallel execution and across kill→resume from any
// event boundary.

// Controller campaign shape: controllerTrialAgents agents per trial
// each issuing controllerArrivals fresh requests.
const (
	controllerTrialAgents = 128
	controllerArrivals    = 1000
)

// controllerTrialConfig is the pinned per-trial load profile. The
// offered load sits at ~70% of the rack's endpoint capacity and ~65%
// of the controller's compute capacity, so bursts genuinely queue,
// shed and miss deadlines while the steady state mostly serves; the
// chaos rates land a handful of faults per trial, including rare
// trunk cuts and chip deaths whose fallout the breakers fence off.
func controllerTrialConfig(seed uint64) loadgen.Config {
	var rates chaos.Rates
	rates.MTBF[chaos.LaserDeath] = 500 * unit.Millisecond
	rates.MTBF[chaos.MZIStuck] = unit.Second
	rates.MTBF[chaos.WaveguideLoss] = 500 * unit.Millisecond
	rates.MTBF[chaos.FiberCut] = 2 * unit.Second
	rates.MTBF[chaos.ChipFailure] = 1500 * unit.Millisecond
	return loadgen.Config{
		Seed:             seed,
		Agents:           controllerTrialAgents,
		ArrivalsPerAgent: controllerArrivals,
		MeanInterarrival: 1300 * unit.Microsecond,
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

// ControllerResult aggregates the controller load campaign.
type ControllerResult struct {
	// Trials[i] is trial i's full outcome.
	Trials []*loadgen.Result
	// Requests and Attempts total the fresh and submitted request
	// counts across trials; Served, Shed, Lost and BreakerTrips total
	// the headline robustness counters.
	Requests, Attempts, Served, Shed, Lost, BreakerTrips int
	// WorstP99us is the slowest trial's p99 setup latency; MeanGoodputWS
	// averages delivered width-seconds per trial.
	WorstP99us    float64
	MeanGoodputWS float64
	// Faults and Violations total across trials (violations must be
	// zero on a correct controller).
	Faults, Violations int
}

// String renders the campaign summary.
func (r ControllerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Controller load: %d trials x %d agents x %d arrivals (%d requests, %d attempts)\n",
		len(r.Trials), controllerTrialAgents, controllerArrivals, r.Requests, r.Attempts)
	fmt.Fprintf(&b, "  served %d, shed %d, lost %d, breaker trips %d, faults %d, invariant violations %d\n",
		r.Served, r.Shed, r.Lost, r.BreakerTrips, r.Faults, r.Violations)
	fmt.Fprintf(&b, "  worst p99 setup %.1fus, mean goodput %.1f width-seconds\n",
		r.WorstP99us, r.MeanGoodputWS)
	for i, o := range r.Trials {
		fmt.Fprintf(&b, "  trial %d: served %d shed %d deadline %d breaker %d nopath %d lost %d trips %d reroutes %d p50 %.1fus p99 %.1fus\n",
			i, o.Served, o.Shed, o.DeadlineMiss, o.BreakerRejects,
			o.NoPath, o.Lost, o.BreakerTrips, o.Reroutes, o.P50us, o.P99us)
	}
	return b.String()
}

// CSV implements Tabular: one row per trial with the full counter set.
func (r ControllerResult) CSV() ([]string, [][]string) {
	var rows [][]string
	for i, o := range r.Trials {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", o.Requests),
			fmt.Sprintf("%d", o.Attempts),
			fmt.Sprintf("%d", o.Served),
			fmt.Sprintf("%d", o.Shed),
			fmt.Sprintf("%d", o.DeadlineMiss),
			fmt.Sprintf("%d", o.BreakerRejects),
			fmt.Sprintf("%d", o.NoPath),
			fmt.Sprintf("%d", o.EndpointFailed),
			fmt.Sprintf("%d", o.Retries),
			fmt.Sprintf("%d", o.Lost),
			fmt.Sprintf("%d", o.Leaked),
			fmt.Sprintf("%d", o.BreakerTrips),
			fmt.Sprintf("%d", o.Faults),
			fmt.Sprintf("%d", o.Reroutes),
			fmt.Sprintf("%d", o.CircuitsLost),
			f64(o.GoodputWS),
			f64(o.P50us),
			f64(o.P99us),
			f64(o.RPS),
			f64(float64(o.Horizon)),
			fmt.Sprintf("%d", o.Events),
			fmt.Sprintf("%d", o.Violations),
		})
	}
	return []string{"trial", "requests", "attempts", "served", "shed",
		"deadline_miss", "breaker_rejects", "no_path", "endpoint_failed", "retries",
		"lost", "leaked", "breaker_trips", "faults", "reroutes", "circuits_lost",
		"goodput_ws", "p50_us", "p99_us", "rps", "horizon_s", "events", "violations"}, rows
}

// ControllerWithOptions runs the load campaign: `trials` independent
// trials (8 run the full campaign: 1,024 agents, 1,024,000 fresh
// requests in total) fanned across CPUs by the experiment engine,
// byte-identical whether the trials ran sequentially or in parallel,
// with checkpoint/resume control.
func ControllerWithOptions(seed uint64, trials int, ck Checkpointing) (ControllerResult, error) {
	if trials < 1 {
		return ControllerResult{}, fmt.Errorf("experiments: controller trials %d < 1", trials)
	}
	config := func(i int) loadgen.Config { return controllerTrialConfig(trialSeed(seed, i)) }
	outcomes, err := checkpointedTrials(ck, "controller", "ctrl", trials, config,
		loadgen.RunCheckpointed, loadgen.Resume)
	if err != nil {
		return ControllerResult{}, err
	}
	var res ControllerResult
	for _, o := range outcomes {
		res.Trials = append(res.Trials, o)
		res.Requests += o.Requests
		res.Attempts += o.Attempts
		res.Served += o.Served
		res.Shed += o.Shed
		res.Lost += o.Lost
		res.BreakerTrips += o.BreakerTrips
		res.Faults += o.Faults
		res.Violations += o.Violations
		res.MeanGoodputWS += o.GoodputWS
		if o.P99us > res.WorstP99us {
			res.WorstP99us = o.P99us
		}
	}
	res.MeanGoodputWS /= float64(trials)
	return res, nil
}
