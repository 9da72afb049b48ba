package failure

import (
	"fmt"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// OpticalPlan is the Figure 7 outcome: dedicated, mutually disjoint
// optical circuits splice the replacement chip into every broken
// ring.
type OpticalPlan struct {
	Replacement int
	Circuits    []*route.Circuit
	// ReadyAt is when the repaired rings can resume: the latest of the
	// circuits' ready times.
	ReadyAt unit.Seconds
}

// OpticalRepair establishes the repair circuits on a LIGHTPATH rack
// hosting the fabric's chips (one tile per chip, 32-tile wafers
// chained with fibers). For each broken ring it connects the
// predecessor and successor to the replacement chip with separate
// circuits, each of the given wavelength width; the allocator
// guarantees they share no waveguide or fiber ("We place these
// optical circuits on separate waveguides and fibers to avoid
// congestion", §4.2).
//
// Every free chip is tried; the paper's point — which the tests
// assert — is that the first candidate already succeeds, because the
// photonic fabric's path diversity is enormous compared to the 6
// ports of a torus chip.
func (f *Fabric) OpticalRepair(rack, failedLocal, width int, now unit.Seconds, seed uint64) (*OpticalPlan, error) {
	f.Fail(f.Global(rack, failedLocal))
	eps, err := f.RepairEndpoints(rack, failedLocal)
	if err != nil {
		return nil, err
	}
	free := f.FreeChips()
	if len(free) == 0 {
		return nil, fmt.Errorf("failure: no free chips to repair with")
	}

	cfg := wafer.DefaultConfig()
	wafers := (f.Size() + cfg.Tiles() - 1) / cfg.Tiles()
	hw, err := wafer.NewRack(cfg, wafers)
	if err != nil {
		return nil, err
	}
	alloc := route.NewAllocator(hw, rng.New(seed))
	alloc.CheckBudget = true

	var lastErr error
	for _, repl := range free {
		plan, err := f.tryOptical(alloc, eps, repl, width, now)
		if err == nil {
			return plan, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("failure: optical repair failed for every free chip: %w", lastErr)
}

// tryOptical establishes the circuits for one replacement candidate,
// releasing everything if any circuit fails.
func (f *Fabric) tryOptical(alloc *route.Allocator, eps []RepairEndpoint, repl, width int, now unit.Seconds) (*OpticalPlan, error) {
	plan := &OpticalPlan{Replacement: repl}
	rollback := func() {
		for _, c := range plan.Circuits {
			alloc.Release(c)
		}
	}
	seen := map[[2]int]bool{}
	for _, ep := range eps {
		for _, peer := range [2]int{ep.Pred, ep.Succ} {
			key := [2]int{min(peer, repl), max(peer, repl)}
			if seen[key] {
				continue // bidirectional circuit already covers this pair
			}
			seen[key] = true
			c, err := alloc.Establish(route.Request{A: peer, B: repl, Width: width}, now)
			if err != nil {
				rollback()
				return nil, err
			}
			plan.Circuits = append(plan.Circuits, c)
		}
	}
	for _, c := range plan.Circuits {
		if c.ReadyAt() > plan.ReadyAt {
			plan.ReadyAt = c.ReadyAt()
		}
	}
	return plan, nil
}

// Disjoint verifies the plan's circuits share no waveguide or fiber —
// the §4.2 non-overlap property.
func (p *OpticalPlan) Disjoint() bool {
	for i := range p.Circuits {
		for j := i + 1; j < len(p.Circuits); j++ {
			if p.Circuits[i].SharesResources(p.Circuits[j]) {
				return false
			}
		}
	}
	return true
}

// RepairBandwidth returns each circuit's bandwidth at the default
// per-wavelength capacity.
func (p *OpticalPlan) RepairBandwidth() unit.BitRate {
	if len(p.Circuits) == 0 {
		return 0
	}
	return p.Circuits[0].Bandwidth(phy.WavelengthCapacity)
}
