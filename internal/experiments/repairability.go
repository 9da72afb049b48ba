package experiments

import (
	"errors"
	"fmt"
	"strings"

	"lightpath/internal/alloc"
	"lightpath/internal/engine"
	"lightpath/internal/failure"
	"lightpath/internal/rng"
	"lightpath/internal/torus"
)

// RepairabilityResult generalizes Figures 6-7 statistically: across
// random multi-tenant racks with one random chip failure each, how
// often does a congestion-free electrical replacement exist, and how
// often does the optical repair succeed?
type RepairabilityResult struct {
	Trials int
	// ElectricalOK counts congestion-free electrical repairs;
	// OpticalOK counts successful circuit repairs.
	ElectricalOK, OpticalOK int
	// MeanCongestion is the average congestion units of the best
	// electrical plan when a clean one did not exist.
	MeanCongestion float64
}

// String renders the result.
func (r RepairabilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Repairability sweep: %d random rack/failure scenarios\n", r.Trials)
	fmt.Fprintf(&b, "  congestion-free electrical repair: %d/%d (%.0f%%)\n",
		r.ElectricalOK, r.Trials, 100*float64(r.ElectricalOK)/float64(max(r.Trials, 1)))
	fmt.Fprintf(&b, "  optical circuit repair:            %d/%d (%.0f%%)\n",
		r.OpticalOK, r.Trials, 100*float64(r.OpticalOK)/float64(max(r.Trials, 1)))
	fmt.Fprintf(&b, "  mean congestion of best electrical plan when congestion-free fails: %.1f units\n",
		r.MeanCongestion)
	return b.String()
}

// repairScenario is one usable rack/failure draw: a packed rack, the
// chip that fails in it, and the seed of its optical repair.
type repairScenario struct {
	t           *torus.Torus
	a           *torus.Allocation
	failed      int
	opticalSeed uint64
}

// repairOutcome is one scenario's two repair attempts.
type repairOutcome struct {
	elecOK     bool
	congestion int
	congested  bool
	optOK      bool
}

// Repairability runs the sweep: each trial packs a 4x4x4 rack with
// random tenants (leaving spares), fails a random ring-carrying chip,
// and attempts both repairs. A sequential scan over scenario indices
// keeps the first `trials` usable draws (capped at 4x the budget);
// only those fan out to engine.Map, and their outcomes fold in index
// order, so the result is bit-identical to a sequential run.
func Repairability(seed uint64, trials int) (RepairabilityResult, error) {
	scenarios, err := repairScenarios(rng.New(seed), trials)
	if err != nil {
		return RepairabilityResult{}, err
	}
	if len(scenarios) == 0 {
		return RepairabilityResult{}, fmt.Errorf("experiments: repairability produced no valid trials")
	}
	outcomes, err := engine.Map(len(scenarios), func(i int) (repairOutcome, error) {
		return repairOne(scenarios[i])
	})
	if err != nil {
		return RepairabilityResult{}, err
	}
	res := RepairabilityResult{Trials: len(outcomes)}
	var congestionSum, congestionN int
	for _, o := range outcomes {
		if o.elecOK {
			res.ElectricalOK++
		}
		if o.congested {
			congestionSum += o.congestion
			congestionN++
		}
		if o.optOK {
			res.OpticalOK++
		}
	}
	if congestionN > 0 {
		res.MeanCongestion = float64(congestionSum) / float64(congestionN)
	}
	return res, nil
}

// repairScenarios draws scenarios 0, 1, 2, ... from r's index-derived
// streams and keeps the usable ones until it has `trials` of them or
// has drawn 4*trials. A draw is unusable when nothing was placed, no
// spare is left, the victim is a single chip, or the failed chip
// carries no rings.
func repairScenarios(r *rng.Rand, trials int) ([]repairScenario, error) {
	var kept []repairScenario
	for i := 0; i < 4*trials && len(kept) < trials; i++ {
		stream := r.Split(fmt.Sprintf("trial-%d", i))
		t := torus.New(torus.TPUv4RackShape)
		placer := alloc.NewPlacer(t)
		// Up to 3 tenants so spares remain for repair.
		placed := alloc.RandomTenants(placer, stream, 3)
		if len(placed) == 0 || placer.FreeCount() == 0 {
			continue
		}
		a, err := placer.Allocation()
		if err != nil {
			return nil, err
		}
		// Fail a random allocated chip belonging to a multi-chip slice.
		victim := placed[stream.Intn(len(placed))]
		if victim.Size() < 2 {
			continue
		}
		chips := victim.Chips(t)
		sc := repairScenario{t: t, a: a, failed: chips[stream.Intn(len(chips))], opticalSeed: stream.Uint64()}
		fabric, err := failure.NewFabric(t, []*torus.Allocation{a}, 2)
		if err != nil {
			return nil, err
		}
		if _, err := fabric.RepairEndpoints(0, sc.failed); err != nil {
			continue // the chip carries no rings: nothing to repair
		}
		kept = append(kept, sc)
	}
	return kept, nil
}

// repairOne attempts the electrical and the optical repair of one
// scenario, each on a fabric of its own.
func repairOne(sc repairScenario) (repairOutcome, error) {
	var out repairOutcome
	elecFabric, err := failure.NewFabric(sc.t, []*torus.Allocation{sc.a}, 2)
	if err != nil {
		return out, err
	}
	plan, err := elecFabric.ElectricalRepair(0, sc.failed, 16)
	switch {
	case err == nil:
		out.elecOK = true
	case errors.Is(err, failure.ErrNoCongestionFreeRepair):
		if plan != nil {
			out.congestion = plan.Congestion
			out.congested = true
		}
	default:
		return out, err
	}
	optFabric, err := failure.NewFabric(sc.t, []*torus.Allocation{sc.a}, 2)
	if err != nil {
		return out, err
	}
	if _, err := optFabric.OpticalRepair(0, sc.failed, 2, 0, sc.opticalSeed); err == nil {
		out.optOK = true
	}
	return out, nil
}
