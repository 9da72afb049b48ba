package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/fleet"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// This file is the long-horizon availability campaign: independent
// multi-day fleet soaks, each a deterministic discrete-event run of
// Poisson faults, self-healing reroutes, spare splices, repair crews
// and admission control — with the invariant auditor in Paranoid mode
// re-checking the optical state after every mutation of every trial.
// It extends the paper's single-fault blast-radius story (§4.2) to
// the compounding-failure regime a real fleet lives in.

// soakHorizon is the campaign's simulated duration per trial.
const soakHorizon = 3 * unit.Day

// SoakResult aggregates the availability campaign.
type SoakResult struct {
	// Trials[i] is trial i's full outcome including the availability
	// time series.
	Trials []*fleet.Outcome
	// MeanAvailability and MeanGoodput average the per-trial means;
	// WorstAvailability is the weakest trial.
	MeanAvailability, MeanGoodput float64
	WorstAvailability             float64
	// Faults and Repairs total across trials; Violations totals the
	// auditors' findings (zero on a correct simulator).
	Faults, Repairs, Violations int
}

// String renders the campaign summary.
func (r SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet soak: %d trials x %.0f-day horizon, paranoid invariant audit\n",
		len(r.Trials), float64(soakHorizon/unit.Day))
	fmt.Fprintf(&b, "  faults %d, repairs %d, invariant violations %d\n",
		r.Faults, r.Repairs, r.Violations)
	fmt.Fprintf(&b, "  availability mean %.3f worst %.3f, goodput mean %.3f\n",
		r.MeanAvailability, r.WorstAvailability, r.MeanGoodput)
	for i, o := range r.Trials {
		fmt.Fprintf(&b, "  trial %d: avail %.3f goodput %.3f reroutes %d splices %d sheds %d readmits %d minSpares %d audits %d\n",
			i, o.Availability, o.MeanGoodput, o.Reroutes, o.Splices,
			o.ShedEvents, o.Readmissions, o.MinSpares, o.Audits)
	}
	return b.String()
}

// CSV implements Tabular: one row per (trial, sample) — the
// availability time series of every trial, concatenated.
func (r SoakResult) CSV() ([]string, [][]string) {
	var rows [][]string
	for i, o := range r.Trials {
		for _, s := range o.Samples {
			rows = append(rows, []string{
				fmt.Sprintf("%d", i),
				f64(float64(s.T)),
				fmt.Sprintf("%d", s.Up),
				fmt.Sprintf("%d", s.Shed),
				f64(s.Goodput),
				fmt.Sprintf("%d", s.Faults),
				fmt.Sprintf("%d", s.Repairs),
				f64(s.MeanBlast),
				fmt.Sprintf("%d", s.Spares),
				fmt.Sprintf("%d", s.Violations),
			})
		}
	}
	return []string{"trial", "time_s", "up", "shed", "goodput",
		"faults", "repairs", "mean_blast", "spares", "violations"}, rows
}

// SoakWithOptions runs the availability campaign: `trials`
// independent fleet soaks at the default three-day horizon, fanned
// across CPUs by the experiment engine, with checkpoint/resume control.
// Each trial derives its own seed stream, every trial runs under the
// Paranoid auditor, and the merged result is byte-identical whether the
// trials ran sequentially or in parallel. Each trial keeps its whole
// time series, one row per simulated hour, which the CSV writes out.
func SoakWithOptions(seed uint64, trials int, ck Checkpointing) (SoakResult, error) {
	if trials < 1 {
		return SoakResult{}, fmt.Errorf("experiments: soak trials %d < 1", trials)
	}
	config := func(i int) fleet.Config {
		return fleet.Config{
			Seed:    trialSeed(seed, i),
			Horizon: soakHorizon,
			Audit:   invariant.Paranoid,
		}
	}
	outcomes, err := checkpointedTrials(ck, "soak", "soak", trials, config, fleet.RunCheckpointed, fleet.Resume)
	if err != nil {
		return SoakResult{}, err
	}
	res := SoakResult{WorstAvailability: 1}
	for _, o := range outcomes {
		res.Trials = append(res.Trials, o)
		res.MeanAvailability += o.Availability
		res.MeanGoodput += o.MeanGoodput
		if o.Availability < res.WorstAvailability {
			res.WorstAvailability = o.Availability
		}
		res.Faults += o.Faults
		res.Repairs += o.Repairs
		res.Violations += o.Violations
	}
	n := float64(trials)
	res.MeanAvailability /= n
	res.MeanGoodput /= n
	return res, nil
}
