package experiments

import (
	"math"
	"strings"
	"testing"

	"lightpath/internal/unit"
)

func TestFig3a(t *testing.T) {
	res, err := Fig3a(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < 3.2*unit.Microsecond || res.Latency > 4.2*unit.Microsecond {
		t.Fatalf("latency = %v, want ~3.7us", res.Latency)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no plot trace")
	}
	if !strings.Contains(res.String(), "3.70us") && !strings.Contains(res.String(), "paper") {
		t.Fatalf("render: %q", res.String())
	}
}

func TestFig3b(t *testing.T) {
	res, err := Fig3b(2, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FitMean-0.25) > 0.02 {
		t.Fatalf("fit center = %v, want ~0.25", res.FitMean)
	}
	if len(res.Bins) != 32 {
		t.Fatalf("bins = %d", len(res.Bins))
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
	for _, n := range []int{0, -3} {
		if _, err := Fig3b(2, n); err == nil {
			t.Errorf("Fig3b with %d samples accepted", n)
		}
	}
}

func TestFig4(t *testing.T) {
	res := Fig4()
	if res.WaveguidesPerTile < 10000 {
		t.Fatalf("waveguides = %d", res.WaveguidesPerTile)
	}
	if res.MaxBudgetCrossings < 20 {
		t.Fatalf("budget crossings = %d, expected comfortable headroom", res.MaxBudgetCrossings)
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestInfo(t *testing.T) {
	res := Info()
	if res.Tiles != 32 || res.LasersPerTile != 16 {
		t.Fatalf("info = %+v", res)
	}
	if res.TileEgress != 3584*unit.Gbps {
		t.Fatalf("egress = %v", res.TileEgress)
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestTable1Experiment(t *testing.T) {
	tbl, err := Table1(DefaultTableBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tbl.BetaRatio-3) > 1e-9 {
		t.Fatalf("ratio = %v", tbl.BetaRatio)
	}
	if TableBufferBytes(DefaultTableBuffer) != 64*unit.MiB {
		t.Fatalf("buffer bytes = %v", TableBufferBytes(DefaultTableBuffer))
	}
}

func TestTable2Experiment(t *testing.T) {
	tbl, err := Table2(DefaultTableBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Stages) != 2 {
		t.Fatalf("stages = %d", len(tbl.Stages))
	}
	ratio := float64(tbl.TotalElecBeta() / tbl.TotalOptBeta())
	if math.Abs(ratio-1.5) > 1e-9 {
		t.Fatalf("ratio = %v", ratio)
	}
}

func TestFig5Experiment(t *testing.T) {
	res, err := Fig5(64*unit.MB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if math.Abs(res.MaxDrop-2.0/3) > 1e-9 {
		t.Fatalf("max drop = %v, want 2/3", res.MaxDrop)
	}
	for _, row := range res.Rows {
		// Slices 1-3 gain (3x, 3x, 1.5x). Slice-4's conservative
		// bucket-shared plan is a wash minus reconfigurations.
		min := 1.3
		if row.Slice == "Slice-4" {
			min = 0.97
		}
		if row.Speedup < min {
			t.Errorf("%s: optical speedup %v < %v at 64MB", row.Slice, row.Speedup, min)
		}
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestSweepExperiment(t *testing.T) {
	res, err := Sweep(DefaultSweepBuffers(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Small buffers: electrical wins (reconfiguration dominates);
	// large: optics wins ~3x.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.Speedup >= 1 {
		t.Fatalf("4KB speedup = %v, want < 1", first.Speedup)
	}
	if last.Speedup < 2.5 {
		t.Fatalf("256MB speedup = %v, want ~3", last.Speedup)
	}
	if res.CrossoverBuffer == 0 {
		t.Fatal("no crossover found")
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestFig6aExperiment(t *testing.T) {
	res, err := Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if res.ElectricalPossible {
		t.Fatal("Figure 6a electrical repair should be impossible")
	}
	if res.BestCongestion == 0 {
		t.Fatal("no diagnostic congestion reported")
	}
	if !strings.Contains(res.String(), "IMPOSSIBLE") {
		t.Fatalf("render: %q", res.String())
	}
	// Deploying the best congested plan would at least halve some
	// tenant's link bandwidth.
	if res.MaxLinkSharing < 2 {
		t.Fatalf("link sharing = %d, want >= 2", res.MaxLinkSharing)
	}
}

func TestFig6bExperiment(t *testing.T) {
	res, err := Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	if res.ElectricalPossible {
		t.Fatal("Figure 6b electrical repair should be impossible")
	}
}

func TestFig7Experiment(t *testing.T) {
	res, err := Fig7(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuits != 4 || !res.Disjoint {
		t.Fatalf("fig7 = %+v", res)
	}
	if res.ReadyIn != 3.7*unit.Microsecond {
		t.Fatalf("ready in %v", res.ReadyIn)
	}
}

func TestBlastExperiment(t *testing.T) {
	res := Blast()
	if res.Stats.Ratio != 16 {
		t.Fatalf("ratio = %v", res.Stats.Ratio)
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationAllocation(t *testing.T) {
	res, err := AblationAllocation(11, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Round-start proposals collide: decentralization pays strictly
	// more attempts, over a retry round, for the same circuits.
	if res.DecentralAttempts <= res.CentralAttempts {
		t.Fatalf("decentralized attempts %d <= centralized %d: no conflict cost", res.DecentralAttempts, res.CentralAttempts)
	}
	if res.DecentralRounds < 2 {
		t.Fatalf("decentralized rounds = %d, want a retry round", res.DecentralRounds)
	}
	if res.DecentralEstablished != res.CentralEstablished {
		t.Fatalf("decentralized established %d, centralized %d", res.DecentralEstablished, res.CentralEstablished)
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationFiber(t *testing.T) {
	res, err := AblationFiber(13)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpareRowsPacked <= res.SpareSpread {
		t.Fatalf("packing spare rows %d <= spreading %d", res.SpareRowsPacked, res.SpareSpread)
	}
	if res.SurvivedPacked < res.Circuits || res.SurvivedSpread < res.Circuits {
		t.Fatalf("repairs lost circuits: %+v", res)
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationSimultaneous(t *testing.T) {
	res, err := AblationSimultaneous(3 << 12)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(float64(res.RedirectedBeta-res.SimultaneousBeta)) / float64(res.SimultaneousBeta)
	if rel > 0.01 {
		t.Fatalf("betas differ by %v: %+v", rel, res)
	}
	if len(res.String()) == 0 {
		t.Fatal("empty render")
	}
}
