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
	m := &LossModel{CrossingDB: 0.1}
	if got := m.Crossing().DB; got != 0.1 {
		t.Fatalf("overridden crossing = %v, want 0.1", got)
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
// sample the stitch-loss distribution, fit a Gaussian, and verify the
// fitted center reproduces the paper's ~0.25 dB.
func TestFig3bStitchLossFit(t *testing.T) {
	m := NewLossModel(rng.New(2024).Split("fig3b"))
	var samples []float64
	for i := 0; i < 10000; i++ {
		samples = append(samples, float64(m.SampleStitchLoss()))
	}
	fit, err := FitGaussian(samples)
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

// TotalLossDB sums the elements' losses in list order.
func TotalLossDB(elements []LossElement) unit.Decibel {
	var total unit.Decibel
	for _, e := range elements {
		total += e.DB
	}
	return total
}

// LossByKind aggregates the per-kind contributions in list order.
func LossByKind(elements []LossElement) LossBreakdown {
	var out LossBreakdown
	for _, e := range elements {
		out[e.Kind] += e.DB
	}
	return out
}

// tally charges the elements to a fresh LossTally in list order.
func tally(elements []LossElement) LossTally {
	var t LossTally
	for _, e := range elements {
		t.Add(e)
	}
	return t
}

// TestTallyMatchesListSums holds the running tally to the list sums it
// replaced, in bits: over random draws of every kind, in draw order,
// the total and each kind's sum must be the very same float64s.
func TestTallyMatchesListSums(t *testing.T) {
	m := NewLossModel(rng.New(11))
	r := rng.New(12)
	for trial := 0; trial < 200; trial++ {
		var elems []LossElement
		for i := r.Intn(60); i > 0; i-- {
			switch LossKind(r.Intn(NumLossKinds)) {
			case LossPropagation:
				elems = append(elems, m.Propagation(unit.Meters(r.Float64()*0.3)))
			case LossCrossing:
				elems = append(elems, m.Crossing())
			case LossStitch:
				elems = append(elems, m.Stitch())
			case LossMZI:
				elems = append(elems, m.MZIPass())
			case LossCoupling:
				elems = append(elems, m.Coupling())
			case LossFiber:
				elems = append(elems, m.FiberHop())
			case LossDefect:
				elems = append(elems, LossElement{Kind: LossDefect, DB: unit.Decibel(r.Float64() * 7)})
			}
		}
		got := tally(elems)
		if math.Float64bits(float64(got.total)) != math.Float64bits(float64(TotalLossDB(elems))) {
			t.Fatalf("trial %d: tally total %v, list total %v", trial, got.total, TotalLossDB(elems))
		}
		want := LossByKind(elems)
		for k := range want {
			if math.Float64bits(float64(got.byKind[k])) != math.Float64bits(float64(want[k])) {
				t.Fatalf("trial %d: %v tally %v, list %v", trial, LossKind(k), got.byKind[k], want[k])
			}
		}
	}
}
