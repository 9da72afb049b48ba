// Benchmark harness: one benchmark per paper table and figure (the
// E1-E12 index in DESIGN.md) plus the design ablations. Each
// benchmark regenerates its artifact end to end per iteration and
// reports the paper-relevant figure of merit as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints the headline numbers
// (beta ratios, speedups, blast-radius shrinkage, reconfiguration
// latency) alongside the usual ns/op. Every seeded benchmark runs the
// same seed each iteration, so its metric does not depend on b.N and
// `make bench-smoke` holds it bit for bit. The campaigns
// internal/experiments benchmarks itself (TenantSweep, Repairability,
// Scheduler) are not repeated here.
package lightpath_test

import (
	"testing"

	"lightpath/internal/experiments"
	"lightpath/internal/unit"
)

// benchSeed is the one seed every seeded benchmark runs: lightpath-sim's
// default.
const benchSeed = 2024

// BenchmarkFig3aReconfigLatency regenerates Figure 3a (E1): the MZI
// step-response simulation plus exponential fit. Metric: fitted
// reconfiguration latency in microseconds (paper: 3.7).
func BenchmarkFig3aReconfigLatency(b *testing.B) {
	var latency unit.Seconds
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3a(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		latency = res.Latency
	}
	b.ReportMetric(latency.Micros(), "latency_us")
}

// BenchmarkFig3bStitchLoss regenerates Figure 3b (E2): stitch-loss
// sampling, histogram and Gaussian fit. Metric: fitted center in dB
// (paper: ~0.25).
func BenchmarkFig3bStitchLoss(b *testing.B) {
	var center float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3b(benchSeed, 10000)
		if err != nil {
			b.Fatal(err)
		}
		center = res.FitMean
	}
	b.ReportMetric(center, "center_dB")
}

// BenchmarkFig4WaveguideDensity regenerates Figure 4 (E3). Metric:
// waveguides per tile (paper: 10,000).
func BenchmarkFig4WaveguideDensity(b *testing.B) {
	var wg int
	for i := 0; i < b.N; i++ {
		wg = experiments.Fig4().WaveguidesPerTile
	}
	b.ReportMetric(float64(wg), "waveguides")
}

// BenchmarkTable1Slice1Costs regenerates Table 1 (E4). Metric: the
// electrical/optical beta ratio (paper: 3).
func BenchmarkTable1Slice1Costs(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table1(experiments.DefaultTableBuffer)
		if err != nil {
			b.Fatal(err)
		}
		ratio = tbl.BetaRatio
	}
	b.ReportMetric(ratio, "beta_ratio")
}

// BenchmarkTable2Slice3Costs regenerates Table 2 (E5). Metric: the
// total beta ratio (paper: 1.5).
func BenchmarkTable2Slice3Costs(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table2(experiments.DefaultTableBuffer)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(tbl.TotalElecBeta() / tbl.TotalOptBeta())
	}
	b.ReportMetric(ratio, "beta_ratio")
}

// BenchmarkFig5Underutilization regenerates Figure 5b/5c (E6): the
// four-tenant rack, per-slice utilizations and end-to-end plans.
// Metric: worst electrical bandwidth drop (paper: 0.66).
func BenchmarkFig5Underutilization(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(64*unit.MB, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		drop = res.MaxDrop
	}
	b.ReportMetric(drop, "max_drop")
}

// BenchmarkFig6aSingleRack regenerates Figure 6a (E7): the exhaustive
// proof that no congestion-free electrical replacement exists in the
// single-rack scenario. Metric: best plan's congestion units (>0).
func BenchmarkFig6aSingleRack(b *testing.B) {
	var congestion int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6a()
		if err != nil {
			b.Fatal(err)
		}
		if res.ElectricalPossible {
			b.Fatal("figure 6a claim violated")
		}
		congestion = res.BestCongestion
	}
	b.ReportMetric(float64(congestion), "congestion")
}

// BenchmarkFig6bCrossRack regenerates Figure 6b (E8): the cross-rack
// variant over the OCS.
func BenchmarkFig6bCrossRack(b *testing.B) {
	var congestion int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		if res.ElectricalPossible {
			b.Fatal("figure 6b claim violated")
		}
		congestion = res.BestCongestion
	}
	b.ReportMetric(float64(congestion), "congestion")
}

// BenchmarkFig7OpticalRepair regenerates Figure 7 (E9): optical
// repair circuits on disjoint waveguides. Metric: time until the
// repaired rings resume, in microseconds (paper: 3.7).
func BenchmarkFig7OpticalRepair(b *testing.B) {
	var ready unit.Seconds
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Disjoint {
			b.Fatal("circuits overlap")
		}
		ready = res.ReadyIn
	}
	b.ReportMetric(ready.Micros(), "ready_us")
}

// BenchmarkBlastRadius regenerates the §4.2 blast-radius sweep (E10)
// over all 4096 chips of a TPUv4-scale cluster. Metric: shrinkage
// factor (paper: rack -> server, 16x).
func BenchmarkBlastRadius(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = experiments.Blast().Stats.Ratio
	}
	b.ReportMetric(ratio, "shrinkage_x")
}

// BenchmarkAllReduceEndToEnd is E11: the buffer-size sweep locating
// the electrical/optical crossover. Sub-benchmarks per buffer size;
// metric: optical speedup at that size.
func BenchmarkAllReduceEndToEnd(b *testing.B) {
	for _, buf := range []unit.Bytes{64 * unit.KiB, unit.MiB, 16 * unit.MiB, 256 * unit.MiB} {
		b.Run(buf.String(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Sweep([]unit.Bytes{buf}, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				speedup = res.Points[0].Speedup
			}
			b.ReportMetric(speedup, "speedup_x")
		})
	}
}

// BenchmarkAblationAllocation compares centralized vs decentralized
// circuit allocation (§5). Metric: decentralized attempt overhead.
func BenchmarkAblationAllocation(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationAllocation(benchSeed, 8)
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(res.DecentralAttempts) / float64(res.CentralAttempts)
	}
	b.ReportMetric(overhead, "attempts_x")
}

// BenchmarkAblationFiberPacking compares fiber packing vs spreading
// (§5). Metric: spare trunk rows preserved by packing.
func BenchmarkAblationFiberPacking(b *testing.B) {
	var spare int
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFiber(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		spare = res.SpareRowsPacked
	}
	b.ReportMetric(float64(spare), "spare_rows")
}

// BenchmarkAblationSimultaneousBucket verifies the §4.1 equivalence:
// redirected single bucket (optical) equals the electrical
// simultaneous buffer-split bucket in beta. Metric: beta ratio (~1).
func BenchmarkAblationSimultaneousBucket(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSimultaneous(3 << 12)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.RedirectedBeta / res.SimultaneousBeta)
	}
	b.ReportMetric(ratio, "beta_ratio")
}

// BenchmarkHostnetStacks compares today's packetized host stack with
// the circuit-switched one the paper says optics will necessitate
// (§1/§5). Metric: the one-shot message-size crossover in KB.
func BenchmarkHostnetStacks(b *testing.B) {
	var crossover unit.Bytes
	for i := 0; i < b.N; i++ {
		res, err := experiments.Hostnet(benchSeed, 200)
		if err != nil {
			b.Fatal(err)
		}
		crossover = res.CrossoverSize
	}
	b.ReportMetric(float64(crossover)/1024, "crossover_KB")
}

// BenchmarkAllToAll quantifies §5's hard case: the shifted exchange
// with per-step optical reprogramming versus dimension-ordered
// electrical routing. Metric: optical speedup at 64 MB per chip.
func BenchmarkAllToAll(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AllToAll([]unit.Bytes{64 * unit.MiB})
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Points[0].Speedup
	}
	b.ReportMetric(speedup, "speedup_x")
}
