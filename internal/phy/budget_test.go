package phy

import (
	"math"
	"strings"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func TestDefaultBudgetEvaluateFeasible(t *testing.T) {
	b := DefaultBudget()
	m := NewLossModel(nil)
	// A short intra-wafer circuit: two couplings, 4 MZIs, 6 crossings,
	// 4 cm of waveguide, one stitch.
	elems := []LossElement{
		m.Coupling(), m.Coupling(),
		m.MZIPass(), m.MZIPass(), m.MZIPass(), m.MZIPass(),
		m.Crossing(), m.Crossing(), m.Crossing(), m.Crossing(), m.Crossing(), m.Crossing(),
		m.Propagation(4 * unit.Centimeter),
		m.Stitch(),
	}
	rep := b.Evaluate(elems)
	if !rep.Feasible {
		t.Fatalf("typical intra-wafer circuit infeasible: %v", rep)
	}
	if rep.BER > 1e-12 {
		t.Fatalf("BER = %v, want <= 1e-12 at positive margin", rep.BER)
	}
	wantLoss := 2*1.5 + 4*0.5 + 6*0.25 + 4*0.1 + 0.25
	if math.Abs(float64(rep.TotalLossDB)-wantLoss) > 1e-9 {
		t.Fatalf("total loss = %v, want %v", rep.TotalLossDB, wantLoss)
	}
}

func TestEvaluateInfeasibleWhenLossExceedsBudget(t *testing.T) {
	b := DefaultBudget()
	m := NewLossModel(nil)
	var elems []LossElement
	for i := 0; i < 200; i++ { // 50 dB of crossings
		elems = append(elems, m.Crossing())
	}
	rep := b.Evaluate(elems)
	if rep.Feasible {
		t.Fatalf("50dB loss circuit reported feasible: %v", rep)
	}
	if rep.MarginDB >= 0 {
		t.Fatalf("margin = %v, want negative", rep.MarginDB)
	}
	if !strings.Contains(rep.String(), "INFEASIBLE") {
		t.Fatalf("report string = %q, want INFEASIBLE marker", rep.String())
	}
}

func TestMaxCrossings(t *testing.T) {
	b := DefaultBudget()
	// Budget: 10 - (-17) - 3 = 24 dB. With 4 dB fixed, 20 dB remain:
	// 80 crossings at 0.25 dB.
	if got := b.MaxCrossings(4, CrossingLossDB); got != 80 {
		t.Fatalf("MaxCrossings = %d, want 80", got)
	}
	// No headroom at all.
	if got := b.MaxCrossings(24, CrossingLossDB); got != 0 {
		t.Fatalf("MaxCrossings at zero headroom = %d, want 0", got)
	}
	if got := b.MaxCrossings(100, CrossingLossDB); got != 0 {
		t.Fatalf("MaxCrossings with negative headroom = %d, want 0", got)
	}
}

func TestMaxCrossingsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxCrossings with zero crossing loss did not panic")
		}
	}()
	DefaultBudget().MaxCrossings(0, 0)
}

// TestCrossTileRoutingFeasible captures the paper's §3 claim: "The
// low-loss (0.25dB) optical crossings enable routing within the same
// active silicon device layer." A circuit crossing the full 8-tile
// width of a wafer (tens of crossings, two stitch boundaries, like the
// A-to-B example crossing two tile boundaries) must close the budget.
func TestCrossTileRoutingFeasible(t *testing.T) {
	b := DefaultBudget()
	m := NewLossModel(rng.New(77).Split("budget"))
	elems := []LossElement{m.Coupling(), m.Coupling()}
	// Full wafer traversal: 8 tiles of 25 mm = 20 cm... too lossy for
	// 1 dB/cm; realistic circuits traverse a few tiles. Model the
	// paper's Figure 3 circuit: 2 tile boundaries (2 stitches), ~5 cm
	// of waveguide, 8 MZIs, 12 crossings.
	elems = append(elems, m.Stitch(), m.Stitch())
	elems = append(elems, m.Propagation(5*unit.Centimeter))
	for i := 0; i < 8; i++ {
		elems = append(elems, m.MZIPass())
	}
	for i := 0; i < 12; i++ {
		elems = append(elems, m.Crossing())
	}
	rep := b.Evaluate(elems)
	if !rep.Feasible {
		t.Fatalf("two-tile-boundary circuit infeasible: %v", rep)
	}
}

// Property (DESIGN.md invariant): BER is monotone non-increasing in
// received power.
func TestBERMonotoneInPower(t *testing.T) {
	sens := unit.DBm(-17)
	prev := 1.0
	for rx := -30.0; rx <= 10; rx += 0.5 {
		ber := BERForReceivedPower(unit.DBm(rx), sens)
		if ber > prev+1e-18 {
			t.Fatalf("BER increased with power at %v dBm: %v > %v", rx, ber, prev)
		}
		if ber < 0 || ber > 0.5 {
			t.Fatalf("BER out of range at %v dBm: %v", rx, ber)
		}
		prev = ber
	}
}

func TestBERAtSensitivityIsReference(t *testing.T) {
	sens := unit.DBm(-17)
	ber := BERForReceivedPower(sens, sens)
	// At the sensitivity point, Q = 7.034, BER ~ 1e-12.
	if ber < 1e-13 || ber > 1e-11 {
		t.Fatalf("BER at sensitivity = %v, want ~1e-12", ber)
	}
}

func TestWavelengthCapacityHeadline(t *testing.T) {
	// Paper §3: "One wavelength can sustain up to 224 Gbps bandwidth".
	if WavelengthCapacity != 224*unit.Gbps {
		t.Fatalf("WavelengthCapacity = %v, want 224 Gbps", WavelengthCapacity)
	}
}

func TestLinkReportString(t *testing.T) {
	rep := DefaultBudget().Evaluate([]LossElement{{Kind: LossCrossing, DB: 1}})
	s := rep.String()
	if !strings.Contains(s, "feasible") || !strings.Contains(s, "loss=1.00dB") {
		t.Fatalf("report string = %q", s)
	}
}

func TestWaterfall(t *testing.T) {
	sens := unit.DBm(-17)
	points := Waterfall(sens, -20, -14, 1)
	if len(points) != 7 {
		t.Fatalf("points = %d, want 7", len(points))
	}
	if points[0].Rx != -20 || points[len(points)-1].Rx != -14 {
		t.Fatalf("range = [%v, %v]", points[0].Rx, points[len(points)-1].Rx)
	}
	for i := 1; i < len(points); i++ {
		if points[i].BER > points[i-1].BER {
			t.Fatal("waterfall not monotone")
		}
	}
}

func TestWaterfallPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero step":      func() { Waterfall(-17, -20, -14, 0) },
		"inverted range": func() { Waterfall(-17, -14, -20, 1) },
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

func TestExtinctionPenalty(t *testing.T) {
	// 10 dB extinction: r=10, penalty = 10*log10(11/9) ~= 0.872 dB.
	got := ExtinctionPenaltyDB(10)
	if math.Abs(float64(got)-0.872) > 0.005 {
		t.Fatalf("penalty(10dB) = %v, want ~0.872", got)
	}
	// Better extinction, smaller penalty; 25 dB (the default MZI) is
	// almost free.
	if p25 := ExtinctionPenaltyDB(DefaultExtinctionDB); p25 >= got || p25 > 0.05 {
		t.Fatalf("penalty(25dB) = %v", p25)
	}
	// Monotone decreasing in extinction.
	prev := unit.Decibel(1e9)
	for ext := unit.Decibel(3); ext <= 30; ext++ {
		p := ExtinctionPenaltyDB(ext)
		if p >= prev {
			t.Fatalf("penalty not decreasing at %v dB", ext)
		}
		prev = p
	}
}

func TestExtinctionPenaltyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 dB extinction did not panic")
		}
	}()
	ExtinctionPenaltyDB(0)
}

func TestBERWithExtinction(t *testing.T) {
	sens := unit.DBm(-17)
	rx := unit.DBm(-15)
	ideal := BERForReceivedPower(rx, sens)
	with := BERWithExtinction(rx, sens, 10)
	if with <= ideal {
		t.Fatalf("extinction-limited BER %v should exceed ideal %v", with, ideal)
	}
	// High extinction converges to the ideal.
	near := BERWithExtinction(rx, sens, 40)
	if rel := math.Abs(near-ideal) / ideal; rel > 0.2 {
		t.Fatalf("40dB extinction BER off by %v", rel)
	}
}

func TestEvaluateZeroMarginLinkIsFeasible(t *testing.T) {
	// Default budget: floor = -17 dBm + 3 dB = -14 dBm, launch 10 dBm.
	// A 24 dB loss lands exactly on the floor: margin 0 must count as
	// feasible (the engineering margin is already inside the floor).
	b := DefaultBudget()
	rep := b.Evaluate([]LossElement{{Kind: LossCrossing, DB: 24}})
	if float64(rep.MarginDB) != 0 {
		t.Fatalf("margin = %v, want exactly 0", rep.MarginDB)
	}
	if !rep.Feasible {
		t.Fatal("zero-margin link reported infeasible")
	}
	if got := rep.ReceivedPower; got != -14 {
		t.Fatalf("received power = %v, want -14 dBm", got)
	}
}

func TestEvaluateNegativeMarginStillAboveSensitivity(t *testing.T) {
	// 25 dB of loss leaves rx = -15 dBm: 1 dB below the floor but 2 dB
	// above raw sensitivity. The link must be infeasible with margin
	// -1 dB while the BER stays at or below the reference 1e-12 (the
	// margin floor is stricter than the BER target).
	b := DefaultBudget()
	rep := b.Evaluate([]LossElement{{Kind: LossPropagation, DB: 25}})
	if rep.Feasible {
		t.Fatalf("negative-margin link reported feasible: %v", rep)
	}
	if math.Abs(float64(rep.MarginDB)+1) > 1e-12 {
		t.Fatalf("margin = %v, want -1 dB", rep.MarginDB)
	}
	if rep.BER > 1e-12 {
		t.Fatalf("BER = %v, want <= 1e-12 above sensitivity", rep.BER)
	}
}

func TestEvaluateDeepNegativeMarginDegradesBER(t *testing.T) {
	// 30 dB of loss puts rx at -20 dBm, 3 dB below sensitivity: the
	// thermal-noise model must report a dramatically worse BER than at
	// the reference point.
	b := DefaultBudget()
	rep := b.Evaluate([]LossElement{{Kind: LossPropagation, DB: 30}})
	if rep.Feasible {
		t.Fatal("link 3 dB below sensitivity reported feasible")
	}
	if rep.BER < 1e-9 {
		t.Fatalf("BER = %v, want far above 1e-12 below sensitivity", rep.BER)
	}
	if rep.BER > 0.5 {
		t.Fatalf("BER = %v, must never exceed 0.5", rep.BER)
	}
}

func TestLinkReportStringFormatsBERAndStatus(t *testing.T) {
	b := DefaultBudget()
	infeasible := b.Evaluate([]LossElement{{Kind: LossPropagation, DB: 25}}).String()
	if !strings.Contains(infeasible, "INFEASIBLE") {
		t.Errorf("negative-margin report %q missing INFEASIBLE", infeasible)
	}
	if !strings.Contains(infeasible, "margin=-1.00dB") {
		t.Errorf("report %q missing signed margin", infeasible)
	}
	// BER must render in scientific notation with two digits of
	// mantissa, never as a rounded-to-zero decimal.
	if !strings.Contains(infeasible, "ber=") || !strings.Contains(infeasible, "e-") {
		t.Errorf("report %q missing scientific-notation BER", infeasible)
	}
	feasible := b.Evaluate(nil).String()
	if !strings.Contains(feasible, "feasible") || strings.Contains(feasible, "INFEASIBLE") {
		t.Errorf("lossless report %q should read feasible", feasible)
	}
}

func TestEvaluateNoLossElements(t *testing.T) {
	b := DefaultBudget()
	rep := b.Evaluate(nil)
	if float64(rep.TotalLossDB) != 0 || rep.ReceivedPower != b.LaunchPower {
		t.Fatalf("lossless link: loss=%v rx=%v", rep.TotalLossDB, rep.ReceivedPower)
	}
	if rep.ByKind != (LossBreakdown{}) || rep.ByKind.Total() != 0 {
		t.Fatalf("lossless link ByKind = %v, want all-zero", rep.ByKind)
	}
	if math.Abs(float64(rep.MarginDB)-24) > 1e-12 {
		t.Fatalf("margin = %v, want 24 dB", rep.MarginDB)
	}
}

func TestMaxCrossingsExhaustedBudget(t *testing.T) {
	// Fixed loss beyond the whole budget leaves room for zero
	// crossings, not a negative count.
	b := DefaultBudget()
	if got := b.MaxCrossings(30, 0.25); got != 0 {
		t.Fatalf("MaxCrossings(30 dB fixed) = %d, want 0", got)
	}
	// Exactly exhausted: available = 24 - 24 = 0.
	if got := b.MaxCrossings(24, 0.25); got != 0 {
		t.Fatalf("MaxCrossings(24 dB fixed) = %d, want 0", got)
	}
}

func TestWaterfallSinglePoint(t *testing.T) {
	points := Waterfall(-17, -15, -15, 1)
	if len(points) != 1 {
		t.Fatalf("degenerate range yielded %d points, want 1", len(points))
	}
	if points[0].Rx != -15 {
		t.Fatalf("point at %v, want -15 dBm", points[0].Rx)
	}
}

// BERWithExtinction estimates OOK BER including the extinction
// penalty of the cascaded MZI switches: the received power is
// derated by ExtinctionPenaltyDB before the thermal-noise Q model.
func BERWithExtinction(rx, sensitivity unit.DBm, extinction unit.Decibel) float64 {
	return BERForReceivedPower(rx.Sub(ExtinctionPenaltyDB(extinction)), sensitivity)
}

// ExtinctionPenaltyDB returns the power penalty of a finite
// transmitter/switch extinction ratio for on-off keying: with
// extinction r (linear power ratio of "one" to residual "zero"), the
// eye closes by a factor (r-1)/(r+1), costing
// -10 log10((r-1)/(r+1)) dB of effective receiver sensitivity. An
// ideal infinite extinction costs 0 dB; 10 dB extinction costs
// ~0.87 dB. It panics for extinction <= 1 (no eye at all).
func ExtinctionPenaltyDB(extinction unit.Decibel) unit.Decibel {
	r := math.Pow(10, float64(extinction)/10)
	if r <= 1 {
		panic("phy: extinction ratio must exceed 1 (0 dB)")
	}
	return unit.Decibel(10 * math.Log10((r+1)/(r-1)))
}
