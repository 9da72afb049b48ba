// Package phy models the optical physical layer of the LIGHTPATH
// interconnect: Mach-Zehnder interferometer (MZI) switches and their
// thermo-optic reconfiguration dynamics, per-element optical losses
// (propagation, waveguide crossings, reticle stitches, coupling), link
// budgets, and bit-error-rate estimation, together with the curve-fitting
// utilities the paper uses to reduce raw traces to headline numbers
// (Figure 3a: reconfiguration latency; Figure 3b: stitch-loss
// distribution).
//
// The paper measures a fabricated wafer with an FPGA and an
// oscilloscope; this package substitutes a calibrated simulation of the
// same devices. See DESIGN.md ("Substitutions") for the argument that
// the substitution preserves the relevant behaviour.
package phy

import (
	"fmt"
	"math"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// MZIState is the routing state of a 2x2 Mach-Zehnder interferometer
// element: Bar passes each input straight through; Cross swaps them.
type MZIState int

// MZI routing states.
const (
	Bar MZIState = iota
	Cross
)

// String returns "bar" or "cross".
func (s MZIState) String() string {
	if s == Bar {
		return "bar"
	}
	return "cross"
}

// phaseFor returns the differential phase (radians) that realizes the
// state in an ideal MZI: 0 for bar, pi for cross.
func (s MZIState) phaseFor() float64 {
	if s == Bar {
		return 0
	}
	return math.Pi
}

// MZI is a single thermo-optically tuned Mach-Zehnder interferometer.
// Its differential phase follows a first-order response toward the
// commanded target, which is the dominant dynamic of integrated
// thermo-optic phase shifters and what gives the paper's Figure 3a its
// exponential shape.
//
// The zero value is an ideal, fully settled Bar-state MZI with the
// default time constant; it is ready to use.
type MZI struct {
	// Tau is the thermo-optic time constant. If zero,
	// DefaultMZITimeConstant is used.
	Tau unit.Seconds

	// ExtinctionDB is the switch's extinction ratio: the residual power
	// leaking into the unselected port, in dB. If zero,
	// DefaultExtinctionDB is used.
	ExtinctionDB unit.Decibel

	phase       float64 // current differential phase (radians)
	targetPhase float64
	lastUpdate  unit.Seconds
}

// Physical constants of the prototype, from the paper (§3,
// "Microsecond reconfiguration"): MZIs settle within 3.7 us. We define
// settling as reaching within 2% of the final value, i.e. 4 time
// constants, so the underlying first-order time constant is 3.7/4 us.
const (
	// ReconfigLatency is the paper's headline optical switch
	// reconfiguration delay.
	ReconfigLatency = 3.7 * unit.Microsecond

	// DefaultMZITimeConstant is the first-order thermo-optic time
	// constant implied by a 3.7 us settling time at the 2% (4 tau)
	// criterion.
	DefaultMZITimeConstant = ReconfigLatency / 4
)

func (m *MZI) tau() unit.Seconds {
	if m.Tau > 0 {
		return m.Tau
	}
	return DefaultMZITimeConstant
}

// settle advances the internal phase to the given simulated time.
func (m *MZI) settle(now unit.Seconds) {
	dt := now - m.lastUpdate
	if dt < 0 {
		// Time never goes backward in the simulator; treat a stale
		// clock as "no time elapsed".
		dt = 0
	}
	alpha := 1 - math.Exp(-float64(dt/m.tau()))
	m.phase += (m.targetPhase - m.phase) * alpha
	m.lastUpdate = now
}

// Program commands the MZI toward the given state at simulated time
// now. The switch output does not change instantaneously: its phase
// relaxes toward the target with time constant Tau.
func (m *MZI) Program(s MZIState, now unit.Seconds) {
	m.settle(now)
	m.targetPhase = s.phaseFor()
}

// MZIInsertionLossDB is the per-MZI insertion loss assumed by the link
// budget, a typical figure for foundry silicon-photonic MZI switches.
const MZIInsertionLossDB unit.Decibel = 0.5

// StepResponse simulates the oscilloscope trace of Figure 3a: the
// normalized optical amplitude at the newly selected port after the MZI
// is commanded from Bar to Cross at t = 0, sampled at the given
// interval for the given duration, with additive Gaussian measurement
// noise of the given standard deviation (normalized units).
//
// The returned samples are (time, amplitude) pairs suitable for
// FitExponentialRise.
func (m *MZI) StepResponse(sampleEvery, duration unit.Seconds, noiseSD float64, r *rng.Rand) []Sample {
	if sampleEvery <= 0 {
		panic("phy: StepResponse with non-positive sample interval")
	}
	tau := float64(m.tau())
	n := int(float64(duration)/float64(sampleEvery)) + 1
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		t := float64(sampleEvery) * float64(i)
		amp := 1 - math.Exp(-t/tau)
		if noiseSD > 0 {
			amp += r.Normal(0, noiseSD)
		}
		out = append(out, Sample{T: unit.Seconds(t), V: amp})
	}
	return out
}

// Sample is one point of a time-series trace.
type Sample struct {
	T unit.Seconds // time since the drive edge
	V float64      // normalized amplitude
}

// String formats the sample for trace dumps.
func (s Sample) String() string {
	return fmt.Sprintf("(%v, %.4f)", s.T, s.V)
}
