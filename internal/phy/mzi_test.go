package phy

import (
	"math"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func TestMZIZeroValueIsBar(t *testing.T) {
	var m MZI
	if m.State() != Bar {
		t.Fatalf("zero MZI state = %v, want bar", m.State())
	}
	if c := m.CrossCoupling(0); c > 0.01 {
		t.Fatalf("zero MZI cross coupling = %v, want ~0", c)
	}
}

func TestMZIProgramCrossSettles(t *testing.T) {
	var m MZI
	m.Program(Cross, 0)
	// Immediately after programming, still mostly bar.
	if c := m.CrossCoupling(10 * unit.Nanosecond); c > 0.1 {
		t.Fatalf("coupling 10ns after program = %v, want <0.1", c)
	}
	// After the paper's 3.7us, within ~2% of full cross (amplitude in
	// phase settles to 2%, power is even closer).
	if c := m.CrossCoupling(ReconfigLatency); c < 0.95 {
		t.Fatalf("coupling at 3.7us = %v, want >0.95", c)
	}
	if m.State() != Cross {
		t.Fatalf("state = %v, want cross", m.State())
	}
}

func TestMZISettledAt(t *testing.T) {
	var m MZI
	got := m.SettledAt(0)
	if math.Abs(float64(got-ReconfigLatency)) > 1e-12 {
		t.Fatalf("SettledAt(0) = %v, want %v", got, ReconfigLatency)
	}
	got = m.SettledAt(unit.Seconds(1))
	want := unit.Seconds(1) + ReconfigLatency
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("SettledAt(1s) = %v, want %v", got, want)
	}
}

func TestMZIExtinctionLimitsCoupling(t *testing.T) {
	m := MZI{ExtinctionDB: 20}
	m.Program(Cross, 0)
	c := m.CrossCoupling(unit.Seconds(1)) // fully settled
	// 20 dB extinction: leak 0.01, so max coupling 1 - 2*0.01 + 0.01 = 0.99.
	if c > 0.995 || c < 0.97 {
		t.Fatalf("settled coupling with 20dB extinction = %v, want ~0.99", c)
	}
	m.Program(Bar, unit.Seconds(1))
	c = m.CrossCoupling(unit.Seconds(2))
	if c < 0.005 || c > 0.03 {
		t.Fatalf("bar-state leak with 20dB extinction = %v, want ~0.01", c)
	}
}

func TestMZIBackwardTimeDoesNotPanic(t *testing.T) {
	var m MZI
	m.Program(Cross, unit.Seconds(1))
	// Querying at an earlier time must not move the phase backward.
	c1 := m.CrossCoupling(unit.Seconds(0.5))
	c2 := m.CrossCoupling(unit.Seconds(1))
	if c2 < c1 {
		t.Fatalf("coupling decreased over time: %v then %v", c1, c2)
	}
}

func TestMZIStateFlipsMidFlight(t *testing.T) {
	var m MZI
	m.Program(Cross, 0)
	// Halfway through settling, command back to bar.
	m.Program(Bar, 1*unit.Microsecond)
	if m.State() != Bar {
		t.Fatalf("state after reprogram = %v, want bar", m.State())
	}
	if c := m.CrossCoupling(unit.Seconds(1)); c > 0.01 {
		t.Fatalf("settled coupling after reprogram = %v, want ~0", c)
	}
}

func TestStepResponseShape(t *testing.T) {
	var m MZI
	r := rng.New(1)
	trace := m.StepResponse(50*unit.Nanosecond, 10*unit.Microsecond, 0, r)
	if len(trace) < 100 {
		t.Fatalf("trace too short: %d samples", len(trace))
	}
	// Monotonic non-decreasing without noise.
	for i := 1; i < len(trace); i++ {
		if trace[i].V < trace[i-1].V-1e-12 {
			t.Fatalf("noiseless step response not monotone at %d", i)
		}
	}
	// Final value near 1.
	if last := trace[len(trace)-1].V; last < 0.999 {
		t.Fatalf("final amplitude = %v, want ~1", last)
	}
}

func TestStepResponsePanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StepResponse with zero interval did not panic")
		}
	}()
	var m MZI
	m.StepResponse(0, unit.Microsecond, 0, rng.New(1))
}

// TestFig3aReconfigurationLatency is the unit-test form of experiment
// E1: simulate the scope trace, fit the exponential, and check the
// fitted settling time reproduces the paper's 3.7 us within tolerance.
func TestFig3aReconfigurationLatency(t *testing.T) {
	var m MZI
	r := rng.New(1234)
	trace := m.StepResponse(20*unit.Nanosecond, 12*unit.Microsecond, 0.02, r)
	fit, err := FitExponentialRise(trace)
	if err != nil {
		t.Fatalf("fit failed: %v", err)
	}
	latency := fit.SettlingTime(0.02) // 2% criterion = 4 tau
	if latency < 3.2*unit.Microsecond || latency > 4.2*unit.Microsecond {
		t.Fatalf("fitted reconfiguration latency = %v, want ~3.7us", latency)
	}
	if fit.Residual > 0.05 {
		t.Fatalf("fit residual = %v, want < 0.05", fit.Residual)
	}
}

func TestCustomTau(t *testing.T) {
	m := MZI{Tau: 2 * unit.Microsecond}
	if got := m.SettledAt(0); math.Abs(float64(got-8*unit.Microsecond)) > 1e-12 {
		t.Fatalf("SettledAt with tau=2us = %v, want 8us", got)
	}
}

// SettledAt returns the simulated time at which the MZI is within 2% of
// its commanded state, measured from the given programming time. This
// is the per-switch reconfiguration delay.
func (m *MZI) SettledAt(programmedAt unit.Seconds) unit.Seconds {
	return programmedAt + unit.Seconds(4)*m.tau()
}

// CrossCoupling returns the fraction of input power emerging at the
// cross port at simulated time now, in [0, 1]. An ideal settled Cross
// MZI returns ~1; an ideal settled Bar MZI returns ~0 (limited by the
// extinction ratio).
func (m *MZI) CrossCoupling(now unit.Seconds) float64 {
	m.settle(now)
	// Ideal interferometer: cross power = sin^2(phase/2).
	ideal := math.Sin(m.phase / 2)
	cross := ideal * ideal
	// Fold in finite extinction: the achievable range is
	// [leak, 1-leak] rather than [0, 1].
	leak := math.Pow(10, -float64(m.extinction())/10)
	return leak + cross*(1-2*leak)
}

// State returns the commanded routing state (the target, not the
// instantaneous analog condition).
func (m *MZI) State() MZIState {
	if m.targetPhase < math.Pi/2 {
		return Bar
	}
	return Cross
}

func (m *MZI) extinction() unit.Decibel {
	if m.ExtinctionDB > 0 {
		return m.ExtinctionDB
	}
	return DefaultExtinctionDB
}

// DefaultExtinctionDB is a typical extinction ratio for a
// well-balanced integrated MZI.
const DefaultExtinctionDB unit.Decibel = 25
