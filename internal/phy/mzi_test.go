package phy

import (
	"math"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func TestStepResponseShape(t *testing.T) {
	r := rng.New(1)
	trace := StepResponse(50*unit.Nanosecond, 10*unit.Microsecond, 0, r)
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

// TestMZIProgramCrossSettles: the trace's time constant puts the 2%
// settling point (4 tau) exactly at the paper's 3.7 us, so an MZI
// commanded from bar to cross at t is ready at t + ReconfigLatency.
func TestMZIProgramCrossSettles(t *testing.T) {
	trace := StepResponse(ReconfigLatency/4, ReconfigLatency, 0, nil)
	if len(trace) != 5 || trace[4].T != ReconfigLatency {
		t.Fatalf("trace = %v, want 5 samples ending at %v", trace, ReconfigLatency)
	}
	if v := trace[3].V; v >= 0.98 {
		t.Fatalf("amplitude at 3 tau = %v, want < 0.98 (not yet settled)", v)
	}
	if v := trace[4].V; v < 0.98 || v > 0.99 {
		t.Fatalf("amplitude at %v = %v, want within 2%% of final", ReconfigLatency, v)
	}
}

// TestMZISettledAt: a switch settles 4 time constants after it is
// programmed, and the time constant a noiseless trace yields to the
// Figure 3a fit puts that point at ReconfigLatency.
func TestMZISettledAt(t *testing.T) {
	if got := 4 * DefaultMZITimeConstant; math.Abs(float64(got-ReconfigLatency)) > 1e-12 {
		t.Fatalf("4 tau = %v, want %v", got, ReconfigLatency)
	}
	trace := StepResponse(10*unit.Nanosecond, 20*ReconfigLatency, 0, nil)
	fit, err := FitExponentialRise(trace)
	if err != nil {
		t.Fatalf("fit failed: %v", err)
	}
	if got := 4 * fit.Tau; math.Abs(float64(got-ReconfigLatency)) > 1e-3*float64(ReconfigLatency) {
		t.Fatalf("fitted settle (4 tau) = %v, want %v", got, ReconfigLatency)
	}
}

func TestStepResponsePanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StepResponse with zero interval did not panic")
		}
	}()
	StepResponse(0, unit.Microsecond, 0, rng.New(1))
}

// TestFig3aReconfigurationLatency is the unit-test form of experiment
// E1: simulate the scope trace, fit the exponential, and check the
// fitted settling time reproduces the paper's 3.7 us within tolerance.
func TestFig3aReconfigurationLatency(t *testing.T) {
	r := rng.New(1234)
	trace := StepResponse(20*unit.Nanosecond, 12*unit.Microsecond, 0.02, r)
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
