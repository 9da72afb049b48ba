package phy

import (
	"math"
	"testing"
	"testing/quick"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func TestFitExponentialRiseExact(t *testing.T) {
	// Noiseless synthetic data: fit must recover tau accurately.
	tau := 0.925e-6
	var trace []Sample
	for ti := 0.0; ti < 10e-6; ti += 20e-9 {
		trace = append(trace, Sample{T: unit.Seconds(ti), V: 1 - math.Exp(-ti/tau)})
	}
	fit, err := FitExponentialRise(trace)
	if err != nil {
		t.Fatalf("fit failed: %v", err)
	}
	if math.Abs(float64(fit.Tau)-tau)/tau > 0.02 {
		t.Fatalf("fitted tau = %v, want %v", fit.Tau, tau)
	}
	if math.Abs(fit.A-1) > 0.02 {
		t.Fatalf("fitted amplitude = %v, want 1", fit.A)
	}
}

func TestFitExponentialRiseRecoveryUnderNoise(t *testing.T) {
	r := rng.New(99)
	for _, tauUS := range []float64{0.5, 0.925, 2.0, 5.0} {
		tau := tauUS * 1e-6
		var trace []Sample
		for ti := 0.0; ti < 12*tau; ti += tau / 100 {
			v := 1 - math.Exp(-ti/tau) + r.Normal(0, 0.01)
			trace = append(trace, Sample{T: unit.Seconds(ti), V: v})
		}
		fit, err := FitExponentialRise(trace)
		if err != nil {
			t.Fatalf("tau=%vus: fit failed: %v", tauUS, err)
		}
		if rel := math.Abs(float64(fit.Tau)-tau) / tau; rel > 0.1 {
			t.Errorf("tau=%vus: fitted %v (rel err %.2f)", tauUS, fit.Tau, rel)
		}
	}
}

func TestFitExponentialRiseErrors(t *testing.T) {
	if _, err := FitExponentialRise(nil); err == nil {
		t.Error("fit of nil trace should fail")
	}
	// All-zero trace: no informative band.
	var flat []Sample
	for i := 0; i < 100; i++ {
		flat = append(flat, Sample{T: unit.Seconds(float64(i) * 1e-9), V: 0})
	}
	if _, err := FitExponentialRise(flat); err == nil {
		t.Error("fit of flat zero trace should fail")
	}
}

func TestSettlingTimeCriteria(t *testing.T) {
	fit := ExpRiseFit{A: 1, Tau: unit.Seconds(1e-6)}
	// 2% criterion: -ln(0.02) ~= 3.912 tau.
	got := fit.SettlingTime(0.02)
	if math.Abs(float64(got)-3.912e-6) > 1e-8 {
		t.Fatalf("settling(2%%) = %v, want ~3.912us", got)
	}
	// 10% criterion is shorter than 2%.
	if fit.SettlingTime(0.10) >= got {
		t.Fatal("10% settling should be shorter than 2% settling")
	}
}

func TestSettlingTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SettlingTime(0) did not panic")
		}
	}()
	ExpRiseFit{A: 1, Tau: 1}.SettlingTime(0)
}

func TestHistogramBasics(t *testing.T) {
	samples := []float64{0.1, 0.15, 0.25, 0.25, 0.35, 0.9, -0.5}
	h := NewHistogram(samples, 0, 0.8, 8)
	if h.N != 5 {
		t.Fatalf("N = %d, want 5 (two samples out of range)", h.N)
	}
	if len(h.Counts) != 8 {
		t.Fatalf("bins = %d, want 8", len(h.Counts))
	}
	if h.Counts[2] != 2 { // [0.2, 0.3) holds both 0.25 samples
		t.Fatalf("bin 2 count = %d, want 2", h.Counts[2])
	}
	// Max boundary lands in the last bin.
	h2 := NewHistogram([]float64{0.8}, 0, 0.8, 8)
	if h2.Counts[7] != 1 {
		t.Fatalf("max-value sample not in last bin: %v", h2.Counts)
	}
}

func TestHistogramDensitiesIntegrateToOne(t *testing.T) {
	r := rng.New(7)
	var samples []float64
	for i := 0; i < 5000; i++ {
		samples = append(samples, r.Float64()*0.8)
	}
	h := NewHistogram(samples, 0, 0.8, 16)
	width := 0.8 / 16
	total := 0.0
	for _, d := range h.Densities() {
		total += d * width
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("densities integrate to %v, want 1", total)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins":   func() { NewHistogram(nil, 0, 1, 0) },
		"empty range": func() { NewHistogram(nil, 1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Density evaluates the fitted normal density at x.
func (g GaussianFit) Density(x float64) float64 {
	if g.SD <= 0 {
		return 0
	}
	z := (x - g.Mean) / g.SD
	return math.Exp(-z*z/2) / (g.SD * math.Sqrt(2*math.Pi))
}

func TestFitGaussianRecovers(t *testing.T) {
	r := rng.New(21)
	var samples []float64
	for i := 0; i < 20000; i++ {
		samples = append(samples, r.Normal(0.25, 0.08))
	}
	fit, err := FitGaussian(samples)
	if err != nil {
		t.Fatalf("fit failed: %v", err)
	}
	if math.Abs(fit.Mean-0.25) > 0.005 {
		t.Errorf("fitted mean = %v, want ~0.25", fit.Mean)
	}
	if math.Abs(fit.SD-0.08) > 0.005 {
		t.Errorf("fitted sd = %v, want ~0.08", fit.SD)
	}
	// Density at the mean of a N(0.25, 0.08) is ~4.99.
	if d := fit.Density(fit.Mean); math.Abs(d-4.99) > 0.3 {
		t.Errorf("density at mean = %v, want ~4.99", d)
	}
}

func TestFitGaussianErrors(t *testing.T) {
	if _, err := FitGaussian(nil); err == nil {
		t.Error("fit of no samples should fail")
	}
	if _, err := FitGaussian([]float64{1, 1, 1}); err == nil {
		t.Error("fit of zero-variance samples should fail")
	}
}

func TestMeanStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	if sd := StdDev(s); math.Abs(sd-2.138) > 0.01 {
		t.Fatalf("stddev = %v, want ~2.138", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if p := Percentile(s, 0); p != 1 {
		t.Fatalf("p0 = %v, want 1", p)
	}
	if p := Percentile(s, 100); p != 5 {
		t.Fatalf("p100 = %v, want 5", p)
	}
	if p := Percentile(s, 50); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := Percentile(s, 25); p != 2 {
		t.Fatalf("p25 = %v, want 2", p)
	}
	if p := Percentile([]float64{7}, 50); p != 7 {
		t.Fatalf("single-sample percentile = %v, want 7", p)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	s := []float64{5, 1, 3}
	_ = Percentile(s, 50)
	if s[0] != 5 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("input mutated: %v", s)
	}
}

func TestPercentileProperty(t *testing.T) {
	// Property: for any sample set, p50 lies between min and max.
	f := func(raw []float64) bool {
		var s []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		p := Percentile(s, 50)
		min, max := s[0], s[0]
		for _, v := range s {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return p >= min && p <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
