package phy

import (
	"fmt"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// This file models the per-element optical losses of a LIGHTPATH
// circuit. The paper measures two of them on the prototype: waveguide
// crossing loss (0.25 dB, §3 "Measuring signal loss") and the
// distribution of reticle stitch loss (Figure 3b). The remaining
// figures (propagation, coupling, MZI insertion) are typical foundry
// values; they enter only through the link budget.

// Default loss figures. Crossing loss is the paper's measured value;
// stitch loss parameters are calibrated so the sampled distribution
// reproduces the shape of Figure 3b (a near-Gaussian bump centered
// around a quarter dB, bounded by [0, 0.8] dB on the figure's axis).
const (
	// CrossingLossDB is the measured loss of one waveguide crossing.
	CrossingLossDB unit.Decibel = 0.25

	// StitchLossMeanDB is the mean of the reticle stitch loss
	// distribution.
	StitchLossMeanDB unit.Decibel = 0.25

	// StitchLossSDDB is the standard deviation of the stitch loss
	// distribution.
	StitchLossSDDB unit.Decibel = 0.08

	// StitchLossMaxDB bounds the distribution, matching the axis range
	// of Figure 3b.
	StitchLossMaxDB unit.Decibel = 0.8

	// PropagationLossDBPerCm is the waveguide propagation loss. The
	// low figure is what makes wafer-scale reach possible at all: a
	// circuit traversing the full 24 cm of an 8-tile wafer row incurs
	// ~2.4 dB.
	PropagationLossDBPerCm unit.Decibel = 0.1

	// FiberHopLossDB is the loss of one inter-wafer fiber hop
	// (coupling into and out of the attached fiber; the fiber itself
	// is negligible at rack scale).
	FiberHopLossDB unit.Decibel = 1.0

	// CouplingLossDB is the loss of one chip-to-waveguide coupling
	// (modulator in, photodetector out).
	CouplingLossDB unit.Decibel = 1.5
)

// LossKind identifies the physical origin of a loss element.
type LossKind int

// Loss element kinds.
const (
	LossPropagation LossKind = iota
	LossCrossing
	LossStitch
	LossMZI
	LossCoupling
	LossFiber
	// LossDefect is fault-induced degradation (a contaminated or
	// delaminated waveguide region) injected by the chaos engine.
	LossDefect

	// NumLossKinds is the number of loss kinds; LossBreakdown is
	// indexed by LossKind and sized by this.
	NumLossKinds = int(LossDefect) + 1
)

var lossKindNames = [...]string{
	LossPropagation: "propagation",
	LossCrossing:    "crossing",
	LossStitch:      "stitch",
	LossMZI:         "mzi",
	LossCoupling:    "coupling",
	LossFiber:       "fiber",
	LossDefect:      "defect",
}

// String names the loss kind.
func (k LossKind) String() string {
	if int(k) < len(lossKindNames) {
		return lossKindNames[k]
	}
	return fmt.Sprintf("LossKind(%d)", int(k))
}

// LossElement is one contributor to a circuit's optical loss.
type LossElement struct {
	Kind LossKind
	DB   unit.Decibel
}

// LossModel samples and accumulates the optical losses along a
// circuit. A LossModel is seeded so that the stitch-loss draw for a
// given experiment is reproducible.
type LossModel struct {
	// CrossingDB overrides CrossingLossDB when positive. The program
	// never sets it; the establish differential in package route does,
	// to put crossing losses off the binary grid, where the loss
	// tally's element order shows in the total's bits.
	CrossingDB unit.Decibel

	rand *rng.Rand
}

// NewLossModel returns a loss model drawing stochastic elements from
// the given stream. A nil stream yields a model that uses mean values
// for stochastic elements (useful for analytic bounds).
func NewLossModel(r *rng.Rand) *LossModel {
	return &LossModel{rand: r}
}

func (m *LossModel) crossing() unit.Decibel {
	if m.CrossingDB > 0 {
		return m.CrossingDB
	}
	return CrossingLossDB
}

// SampleStitchLoss draws one reticle-stitch loss. The distribution is
// a Gaussian truncated to [0, StitchLossMaxDB] by resampling, which is
// both physical (loss cannot be negative) and matches the bounded axis
// of Figure 3b. With a nil stream the mean is returned.
func (m *LossModel) SampleStitchLoss() unit.Decibel {
	if m.rand == nil {
		return StitchLossMeanDB
	}
	for {
		v := unit.Decibel(m.rand.Normal(float64(StitchLossMeanDB), float64(StitchLossSDDB)))
		if v >= 0 && v <= StitchLossMaxDB {
			return v
		}
	}
}

// Crossing returns a crossing loss element.
func (m *LossModel) Crossing() LossElement {
	return LossElement{Kind: LossCrossing, DB: m.crossing()}
}

// Stitch returns a sampled stitch loss element.
func (m *LossModel) Stitch() LossElement {
	return LossElement{Kind: LossStitch, DB: m.SampleStitchLoss()}
}

// Propagation returns the propagation loss element for a waveguide of
// the given length.
func (m *LossModel) Propagation(length unit.Meters) LossElement {
	cm := float64(length) / float64(unit.Centimeter)
	return LossElement{Kind: LossPropagation, DB: unit.Decibel(cm) * PropagationLossDBPerCm}
}

// MZIPass returns the insertion loss element for traversing one MZI.
func (m *LossModel) MZIPass() LossElement {
	return LossElement{Kind: LossMZI, DB: MZIInsertionLossDB}
}

// Coupling returns one chip-waveguide coupling loss element.
func (m *LossModel) Coupling() LossElement {
	return LossElement{Kind: LossCoupling, DB: CouplingLossDB}
}

// FiberHop returns the loss element of one inter-wafer fiber hop.
func (m *LossModel) FiberHop() LossElement {
	return LossElement{Kind: LossFiber, DB: FiberHopLossDB}
}

// LossBreakdown is a per-kind loss aggregate, indexed by LossKind. A
// value type (no allocation, no aliasing): absent kinds read as zero,
// exactly like the map it replaced.
type LossBreakdown [NumLossKinds]unit.Decibel

// LossTally is a circuit's loss as its elements are drawn: the running
// total and the per-kind sums, each element added to both as it
// arrives. Floating-point addition is not associative, so the draw
// order is part of the result; a tally holds the bits a list of the
// same elements, summed in that order, would. The zero value is an
// empty tally, and Add is the only way to change it.
type LossTally struct {
	total  unit.Decibel
	byKind LossBreakdown
}

// Add charges one loss element.
func (t *LossTally) Add(e LossElement) {
	t.total += e.DB
	t.byKind[e.Kind] += e.DB
}
