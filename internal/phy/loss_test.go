package phy

import (
	"math"
	"testing"
	"testing/quick"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func TestLossModelDefaults(t *testing.T) {
	m := NewLossModel(nil)
	if got := m.Crossing().DB; got != CrossingLossDB {
		t.Fatalf("crossing = %v, want %v", got, CrossingLossDB)
	}
	if got := m.SampleStitchLoss(); got != StitchLossMeanDB {
		t.Fatalf("nil-stream stitch = %v, want mean %v", got, StitchLossMeanDB)
	}
	if got := m.Coupling().DB; got != CouplingLossDB {
		t.Fatalf("coupling = %v, want %v", got, CouplingLossDB)
	}
	if got := m.MZIPass().DB; got != MZIInsertionLossDB {
		t.Fatalf("mzi = %v, want %v", got, MZIInsertionLossDB)
	}
}

func TestLossModelOverrides(t *testing.T) {
	m := &LossModel{CrossingDB: 0.1, PropagationDBPerCm: 2, CouplingDB: 0.5}
	if got := m.Crossing().DB; got != 0.1 {
		t.Fatalf("overridden crossing = %v, want 0.1", got)
	}
	if got := m.Propagation(unit.Centimeter).DB; got != 2 {
		t.Fatalf("overridden propagation(1cm) = %v, want 2", got)
	}
	if got := m.Coupling().DB; got != 0.5 {
		t.Fatalf("overridden coupling = %v, want 0.5", got)
	}
}

func TestPropagationScalesWithLength(t *testing.T) {
	m := NewLossModel(nil)
	l1 := m.Propagation(unit.Centimeter).DB
	l2 := m.Propagation(2 * unit.Centimeter).DB
	if math.Abs(float64(l2-2*l1)) > 1e-12 {
		t.Fatalf("propagation not linear: 1cm=%v 2cm=%v", l1, l2)
	}
	if m.Propagation(0).DB != 0 {
		t.Fatal("zero length should have zero loss")
	}
}

func TestStitchLossDistribution(t *testing.T) {
	m := NewLossModel(rng.New(42).Split("stitch"))
	var samples []float64
	for i := 0; i < 20000; i++ {
		v := m.SampleStitchLoss()
		if v < 0 || v > StitchLossMaxDB {
			t.Fatalf("stitch sample %v out of [0, %v]", v, StitchLossMaxDB)
		}
		samples = append(samples, float64(v))
	}
	if mean := Mean(samples); math.Abs(mean-float64(StitchLossMeanDB)) > 0.01 {
		t.Fatalf("stitch mean = %v, want ~%v", mean, StitchLossMeanDB)
	}
	if sd := StdDev(samples); math.Abs(sd-float64(StitchLossSDDB)) > 0.01 {
		t.Fatalf("stitch sd = %v, want ~%v", sd, StitchLossSDDB)
	}
}

// TestFig3bStitchLossFit is the unit-test form of experiment E2:
// sample the stitch-loss distribution, histogram it over the figure's
// axis range, fit a Gaussian, and verify the fitted center reproduces
// the paper's ~0.25 dB.
func TestFig3bStitchLossFit(t *testing.T) {
	m := NewLossModel(rng.New(2024).Split("fig3b"))
	var samples []float64
	for i := 0; i < 10000; i++ {
		samples = append(samples, float64(m.SampleStitchLoss()))
	}
	h := NewHistogram(samples, 0, float64(StitchLossMaxDB), 32)
	fit, err := FitGaussian(samples, h)
	if err != nil {
		t.Fatalf("fit failed: %v", err)
	}
	if math.Abs(fit.Mean-0.25) > 0.02 {
		t.Fatalf("fitted stitch loss center = %v dB, want ~0.25 dB", fit.Mean)
	}
}

func TestTotalLossAndBreakdown(t *testing.T) {
	m := NewLossModel(nil)
	elems := []LossElement{
		m.Coupling(),
		m.Crossing(),
		m.Crossing(),
		m.MZIPass(),
		m.Propagation(2 * unit.Centimeter),
		m.Coupling(),
	}
	total := TotalLossDB(elems)
	want := 2*CouplingLossDB + 2*CrossingLossDB + MZIInsertionLossDB + 2*PropagationLossDBPerCm
	if math.Abs(float64(total-want)) > 1e-12 {
		t.Fatalf("total = %v, want %v", total, want)
	}
	byKind := LossByKind(elems)
	if byKind[LossCrossing] != 2*CrossingLossDB {
		t.Fatalf("crossing breakdown = %v, want %v", byKind[LossCrossing], 2*CrossingLossDB)
	}
	if byKind[LossCoupling] != 2*CouplingLossDB {
		t.Fatalf("coupling breakdown = %v", byKind[LossCoupling])
	}
}

func TestFiberHop(t *testing.T) {
	m := NewLossModel(nil)
	e := m.FiberHop()
	if e.Kind != LossFiber || e.DB != FiberHopLossDB {
		t.Fatalf("fiber hop = %+v", e)
	}
	if LossFiber.String() != "fiber" {
		t.Fatalf("kind name = %q", LossFiber.String())
	}
}

// Property (DESIGN.md invariant): adding elements never decreases
// total loss.
func TestLossMonotonicity(t *testing.T) {
	m := NewLossModel(rng.New(5))
	f := func(nCrossings, nStitches uint8) bool {
		var elems []LossElement
		var prev unit.Decibel
		for i := 0; i < int(nCrossings%32); i++ {
			elems = append(elems, m.Crossing())
			total := TotalLossDB(elems)
			if total < prev {
				return false
			}
			prev = total
		}
		for i := 0; i < int(nStitches%32); i++ {
			elems = append(elems, m.Stitch())
			total := TotalLossDB(elems)
			if total < prev {
				return false
			}
			prev = total
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLossKindString(t *testing.T) {
	cases := map[LossKind]string{
		LossPropagation: "propagation",
		LossCrossing:    "crossing",
		LossStitch:      "stitch",
		LossMZI:         "mzi",
		LossCoupling:    "coupling",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := LossKind(99).String(); got != "LossKind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// Total sums the breakdown.
func (b LossBreakdown) Total() unit.Decibel {
	var total unit.Decibel
	for _, v := range b {
		total += v
	}
	return total
}
