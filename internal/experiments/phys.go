// Package experiments contains one runner per paper artifact (every
// table and figure, per DESIGN.md's experiment index E1-E12) plus the
// ablation studies. Each runner returns a result struct with a String
// rendering that prints the same rows/series the paper reports; the
// CLI (cmd/lightpath-sim) and the benchmark harness (bench_test.go)
// both dispatch here.
package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Fig3aResult is experiment E1: the MZI switch time response and the
// fitted reconfiguration latency (paper: 3.7 us).
type Fig3aResult struct {
	Samples    int
	FittedTau  unit.Seconds
	Latency    unit.Seconds // 2%-settling time from the fit
	FitRMSE    float64
	PaperValue unit.Seconds
	// Trace is a decimated (time, amplitude) series for plotting.
	Trace []phy.Sample
}

// String renders the result.
func (r Fig3aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3a: Mach-Zehnder router switch time response\n")
	fmt.Fprintf(&b, "  samples=%d fitted tau=%v rmse=%.4f\n", r.Samples, r.FittedTau, r.FitRMSE)
	fmt.Fprintf(&b, "  reconfiguration latency (2%% settling) = %v (paper: %v)\n", r.Latency, r.PaperValue)
	fmt.Fprintf(&b, "  trace (t us, amplitude):")
	for _, s := range r.Trace {
		fmt.Fprintf(&b, " (%.2f, %.3f)", s.T.Micros(), s.V)
	}
	b.WriteString("\n")
	return b.String()
}

// Fig3a simulates the oscilloscope measurement of Figure 3a: drive an
// MZI from bar to cross, sample the output with measurement noise,
// and fit the exponential rise.
func Fig3a(seed uint64) (Fig3aResult, error) {
	r := rng.New(seed).Split("fig3a")
	trace := phy.StepResponse(20*unit.Nanosecond, 12*unit.Microsecond, 0.02, r)
	fit, err := phy.FitExponentialRise(trace)
	if err != nil {
		return Fig3aResult{}, err
	}
	res := Fig3aResult{
		Samples:    len(trace),
		FittedTau:  fit.Tau,
		Latency:    fit.SettlingTime(0.02),
		FitRMSE:    fit.Residual,
		PaperValue: phy.ReconfigLatency,
	}
	// Decimate to ~24 plot points.
	step := len(trace) / 24
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(trace); i += step {
		res.Trace = append(res.Trace, trace[i])
	}
	return res, nil
}

// Fig3bResult is experiment E2: the reticle stitch loss distribution
// (paper: centered near 0.25 dB).
type Fig3bResult struct {
	Samples    int
	Mean, SD   float64 // dB
	FitMean    float64 // Gaussian fit center, dB
	FitSD      float64
	PaperValue unit.Decibel
	// Bins are (center dB, density) pairs of the histogram.
	Bins [][2]float64
}

// String renders the result.
func (r Fig3bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3b: distribution of reticle stitch loss\n")
	fmt.Fprintf(&b, "  samples=%d mean=%.3fdB sd=%.3fdB\n", r.Samples, r.Mean, r.SD)
	fmt.Fprintf(&b, "  gaussian fit: center=%.3fdB sd=%.3fdB (paper: ~%.2fdB crossings)\n",
		r.FitMean, r.FitSD, float64(r.PaperValue))
	fmt.Fprintf(&b, "  histogram (dB, density):")
	for _, bin := range r.Bins {
		fmt.Fprintf(&b, " (%.3f, %.2f)", bin[0], bin[1])
	}
	b.WriteString("\n")
	return b.String()
}

// Fig3b samples the stitch-loss distribution and fits the Gaussian
// the figure overlays.
func Fig3b(seed uint64, samples int) (Fig3bResult, error) {
	if samples < 1 {
		return Fig3bResult{}, fmt.Errorf("experiments: fig3b needs at least 1 sample, got %d", samples)
	}
	m := phy.NewLossModel(rng.New(seed).Split("fig3b"))
	vals := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		vals = append(vals, float64(m.SampleStitchLoss()))
	}
	h := phy.NewHistogram(vals, 0, float64(phy.StitchLossMaxDB), 32)
	fit, err := phy.FitGaussian(vals)
	if err != nil {
		return Fig3bResult{}, err
	}
	res := Fig3bResult{
		Samples:    samples,
		Mean:       phy.Mean(vals),
		SD:         phy.StdDev(vals),
		FitMean:    fit.Mean,
		FitSD:      fit.SD,
		PaperValue: phy.CrossingLossDB,
	}
	centers := h.BinCenters()
	densities := h.Densities()
	for i := range centers {
		res.Bins = append(res.Bins, [2]float64{centers[i], densities[i]})
	}
	return res, nil
}

// Fig4Result is experiment E3: waveguide density and the routing
// headroom it buys.
type Fig4Result struct {
	PitchUM            float64
	TileEdgeMM         float64
	WaveguidesPerTile  int
	MaxBudgetCrossings int
}

// String renders the result.
func (r Fig4Result) String() string {
	return fmt.Sprintf(
		"Figure 4: waveguide density\n"+
			"  pitch=%.1fum tile edge=%.0fmm -> %d waveguides per tile (paper: 10,000)\n"+
			"  link budget tolerates %d crossings at %.2fdB on top of a typical circuit\n",
		r.PitchUM, r.TileEdgeMM, r.WaveguidesPerTile, r.MaxBudgetCrossings, float64(phy.CrossingLossDB))
}

// Fig4 computes the Figure 4 geometry from the default wafer
// configuration.
func Fig4() Fig4Result {
	cfg := wafer.DefaultConfig()
	// Fixed losses of a representative circuit: two couplings, four
	// switches (8 MZI stages), 5 cm of waveguide, 2 stitches.
	fixed := 2*phy.CouplingLossDB + 8*phy.MZIInsertionLossDB +
		5*phy.PropagationLossDBPerCm + 2*phy.StitchLossMeanDB
	return Fig4Result{
		PitchUM:            float64(cfg.WaveguidePitch) / float64(unit.Micrometer),
		TileEdgeMM:         float64(cfg.TileEdge) / float64(unit.Millimeter),
		WaveguidesPerTile:  cfg.WaveguidesPerTileGeometric(),
		MaxBudgetCrossings: phy.DefaultBudget().MaxCrossings(fixed, phy.CrossingLossDB),
	}
}

// InfoResult is experiment E12: the §3 headline hardware numbers.
type InfoResult struct {
	Tiles              int
	LasersPerTile      int
	WavelengthCapacity unit.BitRate
	TileEgress         unit.BitRate
	ReconfigLatency    unit.Seconds
	CrossingLoss       unit.Decibel
	WaveguidesPerTile  int
}

// String renders the result.
func (r InfoResult) String() string {
	return fmt.Sprintf(
		"LIGHTPATH prototype headline numbers (paper §3)\n"+
			"  tiles per wafer:        %d\n"+
			"  lasers per tile:        %d\n"+
			"  per-wavelength rate:    %v\n"+
			"  tile egress:            %v\n"+
			"  reconfiguration:        %v\n"+
			"  crossing loss:          %.2f dB\n"+
			"  waveguides per tile:    %d\n",
		r.Tiles, r.LasersPerTile, r.WavelengthCapacity, r.TileEgress,
		r.ReconfigLatency, float64(r.CrossingLoss), r.WaveguidesPerTile)
}

// WaterfallResult is the BER waterfall of the LIGHTPATH receiver —
// the physical-layer validation behind §3's "we measure
// characteristics (e.g., bit error rate) using this transfer".
type WaterfallResult struct {
	Sensitivity unit.DBm
	Points      []phy.WaterfallPoint
}

// String renders the curve.
func (r WaterfallResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BER waterfall (receiver sensitivity %.1f dBm at 1e-12)\n", float64(r.Sensitivity))
	fmt.Fprintf(&b, "  (rx dBm, BER):")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " (%.1f, %.1e)", float64(p.Rx), p.BER)
	}
	b.WriteString("\n")
	return b.String()
}

// Waterfall sweeps received power over the budget's dynamic range.
func Waterfall() WaterfallResult {
	budget := phy.DefaultBudget()
	return WaterfallResult{
		Sensitivity: budget.ReceiverSensitivity,
		Points:      phy.Waterfall(budget.ReceiverSensitivity, budget.ReceiverSensitivity-6, budget.ReceiverSensitivity+6, 1),
	}
}

// Info reports the paper's headline prototype numbers from the model
// constants.
func Info() InfoResult {
	cfg := wafer.DefaultConfig()
	return InfoResult{
		Tiles:              cfg.Tiles(),
		LasersPerTile:      cfg.LasersPerTile,
		WavelengthCapacity: cfg.WavelengthCapacity,
		TileEgress:         cfg.TileEgress(),
		ReconfigLatency:    phy.ReconfigLatency,
		CrossingLoss:       phy.CrossingLossDB,
		WaveguidesPerTile:  cfg.WaveguidesPerTileGeometric(),
	}
}
