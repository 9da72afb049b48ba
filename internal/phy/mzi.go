// Package phy models the optical physical layer of the LIGHTPATH
// interconnect: the reconfiguration latency of its Mach-Zehnder
// interferometer (MZI) switches, per-element optical losses
// (propagation, waveguide crossings, reticle stitches, coupling), link
// budgets, and bit-error-rate estimation, together with the curve-fitting
// utilities the paper uses to reduce raw traces to headline numbers
// (Figure 3a: reconfiguration latency; Figure 3b: stitch-loss
// distribution).
//
// Switch timing is one constant, ReconfigLatency: every switch settles
// that long after it is programmed. StepResponse synthesizes the
// Figure 3a trace from the first-order response that constant implies.
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

// MZIInsertionLossDB is the per-MZI insertion loss assumed by the link
// budget, a typical figure for foundry silicon-photonic MZI switches.
const MZIInsertionLossDB unit.Decibel = 0.5

// StepResponse simulates the oscilloscope trace of Figure 3a: the
// normalized optical amplitude at the newly selected port after an MZI
// is commanded from bar to cross at t = 0, sampled at the given
// interval for the given duration, with additive Gaussian measurement
// noise of the given standard deviation (normalized units). The
// thermo-optic phase follows a first-order response with time constant
// DefaultMZITimeConstant, the dominant dynamic of integrated
// thermo-optic phase shifters and what gives Figure 3a its exponential
// shape.
//
// The returned samples are (time, amplitude) pairs suitable for
// FitExponentialRise.
func StepResponse(sampleEvery, duration unit.Seconds, noiseSD float64, r *rng.Rand) []Sample {
	if sampleEvery <= 0 {
		panic("phy: StepResponse with non-positive sample interval")
	}
	tau := float64(DefaultMZITimeConstant)
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
