// Package cost implements the paper's alpha-beta-r model (§4.1): alpha
// is the per-step software overhead of sending a buffer, beta the
// inverse bandwidth of the links carrying it, and r the optical
// reconfiguration delay charged whenever the photonic interconnect is
// reprogrammed. It prices collective Schedules on two interconnects:
//
//   - Electrical direct-connect torus: a chip's egress bandwidth B is
//     statically partitioned across the physical dimensions, so every
//     flow runs at B/D_phys regardless of how many dimensions the
//     collective actually uses. This is the under-utilization of §4.1.
//
//   - Photonic (LIGHTPATH): MZI switches redirect the idle dimensions'
//     bandwidth onto the collective's active rings, so each of the
//     slice's D_active ring dimensions gets B/D_active (§4.1: "The
//     output of I/O ports of the TPU chip along different dimensions
//     can be redirected to one dimension"). The price is r per
//     reconfiguration-marked step.
package cost

import (
	"fmt"

	"lightpath/internal/collective"
	"lightpath/internal/phy"
	"lightpath/internal/unit"
)

// Params are the constants of the cost model.
type Params struct {
	// Alpha is the per-step software overhead.
	Alpha unit.Seconds
	// ChipBandwidth is B, a chip's total egress bandwidth.
	ChipBandwidth unit.BitRate
	// PhysDims is D_phys, the number of physical torus dimensions a
	// chip's ports are statically divided across (3 for TPUv4).
	PhysDims int
	// Reconfig is r, the optical reconfiguration delay.
	Reconfig unit.Seconds
}

// DefaultParams returns the parameters used throughout the
// reproduction: alpha = 1 us (software send overhead), B = 300 GB/s
// (the paper's "over 300 gigabytes per second in one direction" for
// modern inter-accelerator links), 3 physical dimensions, and the
// measured r = 3.7 us.
func DefaultParams() Params {
	return Params{
		Alpha:         1 * unit.Microsecond,
		ChipBandwidth: unit.GBps(300),
		PhysDims:      3,
		Reconfig:      phy.ReconfigLatency,
	}
}

func (p Params) validate() error {
	if p.ChipBandwidth <= 0 {
		return fmt.Errorf("cost: non-positive chip bandwidth %v", p.ChipBandwidth)
	}
	if p.PhysDims <= 0 {
		return fmt.Errorf("cost: non-positive physical dimensions %d", p.PhysDims)
	}
	return nil
}

// Cost is the priced outcome of a schedule.
type Cost struct {
	Steps     int
	Reconfigs int
	// Alpha is Steps * alpha.
	Alpha unit.Seconds
	// Beta is the total transmission time (the beta term).
	Beta unit.Seconds
	// ReconfigTime is Reconfigs * r.
	ReconfigTime unit.Seconds
}

// Total returns Alpha + Beta + ReconfigTime.
func (c Cost) Total() unit.Seconds { return c.Alpha + c.Beta + c.ReconfigTime }

// String summarizes the cost.
func (c Cost) String() string {
	return fmt.Sprintf("steps=%d reconfigs=%d alpha=%v beta=%v total=%v",
		c.Steps, c.Reconfigs, c.Alpha, c.Beta, c.Total())
}

// flowKey groups a step's transfers by sending chip and dimension; a
// group shares one port's bandwidth.
type flowKey struct {
	chip, dim int
}

// stepBeta returns the transmission time of one step: the slowest
// (chip, dimension) group's bytes over the per-flow bandwidth. The
// caller owns the groups scratch (cleared here) so pricing a whole
// schedule reuses one map instead of allocating per step.
func stepBeta(groups map[flowKey]unit.Bytes, step collective.Step, elemBytes unit.Bytes, flowBW unit.BitRate) unit.Seconds {
	clear(groups)
	for _, tr := range step.Transfers {
		groups[flowKey{chip: tr.From, dim: tr.Dim}] += tr.Bytes(elemBytes)
	}
	var worst unit.Seconds
	for _, bytes := range groups {
		if t := flowBW.TimeFor(bytes); t > worst {
			worst = t
		}
	}
	return worst
}

// Electrical prices the schedule on a static direct-connect torus:
// every flow is confined to its dimension's port at B/D_phys;
// reconfiguration marks are ignored (there is nothing to reconfigure).
func (p Params) Electrical(s *collective.Schedule) (Cost, error) {
	if err := p.validate(); err != nil {
		return Cost{}, err
	}
	perDim := p.ChipBandwidth / unit.BitRate(p.PhysDims)
	c := Cost{Steps: s.NumSteps()}
	c.Alpha = unit.Seconds(c.Steps) * p.Alpha
	groups := make(map[flowKey]unit.Bytes)
	for _, step := range s.Steps {
		c.Beta += stepBeta(groups, step, s.ElemBytes, perDim)
	}
	return c, nil
}

// Optical prices the schedule on the photonic interconnect with
// bandwidth redirected across the collective's activeDims ring
// dimensions: every flow runs at B/activeDims, and each
// reconfiguration-marked step is charged r. activeDims is a property
// of the algorithm (1 for a single snake ring, the number of bucket
// dimensions otherwise); see collective.ActiveDims.
func (p Params) Optical(s *collective.Schedule, activeDims int) (Cost, error) {
	if err := p.validate(); err != nil {
		return Cost{}, err
	}
	if activeDims <= 0 {
		return Cost{}, fmt.Errorf("cost: non-positive active dimensions %d", activeDims)
	}
	perRing := p.ChipBandwidth / unit.BitRate(activeDims)
	c := Cost{Steps: s.NumSteps(), Reconfigs: s.Reconfigs()}
	c.Alpha = unit.Seconds(c.Steps) * p.Alpha
	c.ReconfigTime = unit.Seconds(c.Reconfigs) * p.Reconfig
	groups := make(map[flowKey]unit.Bytes)
	for _, step := range s.Steps {
		c.Beta += stepBeta(groups, step, s.ElemBytes, perRing)
	}
	return c, nil
}

// OpticalPerPhase prices the schedule on the photonic interconnect
// under the most aggressive redirection the paper describes (§4.1:
// "running the algorithm once, using all the bandwidth in each step
// (only feasible with LIGHTPATH)"): in every step, each chip's full
// egress B is divided among the distinct rings (flow groups) it is
// feeding at that moment. A sequential bucket phase gives each flow
// the whole B; the simultaneous buffer-split variant gives each of
// its D concurrent flows B/D — which is why that variant "does not
// offer better performance".
//
// Contrast with Optical, which models Table 2's static split of the
// idle dimensions' bandwidth across the slice's active dimensions.
func (p Params) OpticalPerPhase(s *collective.Schedule) (Cost, error) {
	if err := p.validate(); err != nil {
		return Cost{}, err
	}
	c := Cost{Steps: s.NumSteps(), Reconfigs: s.Reconfigs()}
	c.Alpha = unit.Seconds(c.Steps) * p.Alpha
	c.ReconfigTime = unit.Seconds(c.Reconfigs) * p.Reconfig
	for _, step := range s.Steps {
		groups := map[flowKey]unit.Bytes{}
		perChip := map[int]int{}
		for _, tr := range step.Transfers {
			k := flowKey{chip: tr.From, dim: tr.Dim}
			if _, ok := groups[k]; !ok {
				perChip[tr.From]++
			}
			groups[k] += tr.Bytes(s.ElemBytes)
		}
		var worst unit.Seconds
		for k, bytes := range groups {
			bw := p.ChipBandwidth / unit.BitRate(perChip[k.chip])
			if t := bw.TimeFor(bytes); t > worst {
				worst = t
			}
		}
		c.Beta += worst
	}
	return c, nil
}
