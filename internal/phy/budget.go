package phy

import (
	"fmt"
	"math"

	"lightpath/internal/unit"
)

// This file computes optical link budgets: given a circuit's loss
// elements, a laser launch power, and a receiver sensitivity, is the
// link feasible, with how much margin, and at what estimated BER? The
// paper's §3 argument is that the measured 0.25 dB crossing loss makes
// routing "within the same active silicon device layer" feasible — the
// budget quantifies exactly that.

// Budget describes the endpoints of an optical link.
type Budget struct {
	// LaunchPower is the laser output power coupled into the
	// transmitter, per wavelength.
	LaunchPower unit.DBm

	// ReceiverSensitivity is the minimum received power for the target
	// BER at the photodetector.
	ReceiverSensitivity unit.DBm

	// Margin is the additional engineering margin required on top of
	// the sensitivity.
	Margin unit.Decibel
}

// DefaultBudget is a representative silicon-photonics budget: 10 dBm
// per-wavelength launch, -17 dBm sensitivity at 224 Gbps (PAM4-class
// receiver), 3 dB margin.
func DefaultBudget() Budget {
	return Budget{
		LaunchPower:         10,
		ReceiverSensitivity: -17,
		Margin:              3,
	}
}

// LinkReport is the result of evaluating a circuit against a budget.
type LinkReport struct {
	TotalLossDB   unit.Decibel
	ReceivedPower unit.DBm
	// MarginDB is the power above (positive) or below (negative) the
	// sensitivity-plus-margin floor.
	MarginDB unit.Decibel
	Feasible bool
	// BER is the estimated bit error rate at the received power.
	BER float64
	// ByKind breaks the loss down per element kind. It is a value
	// (array, not map): copying a LinkReport copies the breakdown,
	// and kinds that contributed nothing read as zero.
	ByKind LossBreakdown
}

// String summarizes the report in one line.
func (r LinkReport) String() string {
	status := "INFEASIBLE"
	if r.Feasible {
		status = "feasible"
	}
	return fmt.Sprintf("loss=%.2fdB rx=%.2fdBm margin=%.2fdB ber=%.2e %s",
		float64(r.TotalLossDB), float64(r.ReceivedPower), float64(r.MarginDB), r.BER, status)
}

// Evaluate computes the link report for a circuit's loss elements.
func (b Budget) Evaluate(elements []LossElement) LinkReport {
	total := TotalLossDB(elements)
	rx := b.LaunchPower.Sub(total)
	floor := b.ReceiverSensitivity + unit.DBm(b.Margin)
	margin := unit.Decibel(rx - floor)
	return LinkReport{
		TotalLossDB:   total,
		ReceivedPower: rx,
		MarginDB:      margin,
		Feasible:      margin >= 0,
		BER:           BERForReceivedPower(rx, b.ReceiverSensitivity),
		ByKind:        LossByKind(elements),
	}
}

// MaxCrossings returns the largest number of 0.25 dB crossings a link
// can absorb on top of the given fixed loss while remaining feasible.
// This is the §3 feasibility argument made quantitative: low-loss
// crossings are what allow circuits to traverse many tiles in the
// same device layer.
func (b Budget) MaxCrossings(fixed unit.Decibel, crossingDB unit.Decibel) int {
	if crossingDB <= 0 {
		panic("phy: MaxCrossings with non-positive crossing loss")
	}
	available := unit.Decibel(b.LaunchPower-b.ReceiverSensitivity) - b.Margin - fixed
	if available < 0 {
		return 0
	}
	return int(float64(available / crossingDB))
}

// BERForReceivedPower estimates the bit error rate of an on-off-keyed
// receiver given the received power and the power at which the receiver
// achieves its reference BER of 1e-12 (its "sensitivity").
//
// The model assumes thermal-noise-limited detection, where the Q factor
// scales linearly with received optical power: Q = Qref * P/Pref, with
// Qref ~= 7 at BER 1e-12. BER = 0.5 * erfc(Q / sqrt(2)).
func BERForReceivedPower(rx, sensitivity unit.DBm) float64 {
	const qRef = 7.034 // Q at BER 1e-12
	ratio := rx.Milliwatts() / sensitivity.Milliwatts()
	q := qRef * ratio
	return 0.5 * math.Erfc(q/math.Sqrt2)
}

// WavelengthCapacity is the paper's measured per-wavelength data rate:
// "One wavelength can sustain up to 224 Gbps bandwidth".
const WavelengthCapacity = 224 * unit.Gbps

// WaterfallPoint is one point of a BER-versus-received-power curve.
type WaterfallPoint struct {
	Rx  unit.DBm
	BER float64
}

// Waterfall evaluates the receiver's BER over a received-power range
// — the standard "waterfall" curve used to validate a link budget.
// It panics if step is not positive or the range is inverted.
func Waterfall(sensitivity unit.DBm, from, to unit.DBm, step unit.Decibel) []WaterfallPoint {
	if step <= 0 {
		panic("phy: waterfall with non-positive step")
	}
	if to < from {
		panic("phy: waterfall with inverted range")
	}
	var out []WaterfallPoint
	for rx := from; rx <= to+1e-9; rx += unit.DBm(step) {
		out = append(out, WaterfallPoint{Rx: rx, BER: BERForReceivedPower(rx, sensitivity)})
	}
	return out
}
