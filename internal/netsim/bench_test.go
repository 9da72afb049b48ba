package netsim

import (
	"fmt"
	"testing"

	"lightpath/internal/unit"
)

// benchFlows builds f flows each crossing via shared resources drawn
// from a pool of r links, with hops resources per flow — the knobs the
// FairRates microbenchmarks turn to separate per-flow from
// per-resource and per-round costs.
func benchFlows(f, r, hops int) ([]Flow[string], map[string]unit.BitRate) {
	flows := make([]Flow[string], f)
	for i := range flows {
		via := make([]string, hops)
		for h := 0; h < hops; h++ {
			via[h] = fmt.Sprintf("r%d", (i*hops+h)%r)
		}
		flows[i] = Flow[string]{Bytes: unit.MB, Via: via}
	}
	caps := make(map[string]unit.BitRate, r)
	for i := 0; i < r; i++ {
		caps[fmt.Sprintf("r%d", i)] = unit.GBps(float64(1 + i%4))
	}
	return flows, caps
}

// benchFairRates runs one shape through a held Sim and returns the
// deterministic makespan for the caller to report as its paper metric.
func benchFairRates(b *testing.B, f, r, hops int) float64 {
	flows, caps := benchFlows(f, r, hops)
	var sim Sim[string]
	var total float64
	// Warm the scratch so the short bench budget measures steady state.
	if _, err := sim.Run(flows, caps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(flows, caps)
		if err != nil {
			b.Fatal(err)
		}
		total = float64(res.Makespan)
	}
	return total
}

// BenchmarkFairRatesSmall is the common campaign shape: a handful of
// flows on a handful of links.
func BenchmarkFairRatesSmall(b *testing.B) {
	b.ReportMetric(benchFairRates(b, 8, 8, 2), "makespan_s")
}

// BenchmarkFairRatesWide stresses per-flow costs: many flows, few
// shared resources, so freezing rounds are few but each scans widely.
func BenchmarkFairRatesWide(b *testing.B) {
	b.ReportMetric(benchFairRates(b, 512, 16, 2), "makespan_s")
}

// BenchmarkFairRatesDeep stresses per-resource costs: long Via lists
// over a large resource pool force many progressive-filling rounds.
func BenchmarkFairRatesDeep(b *testing.B) {
	b.ReportMetric(benchFairRates(b, 64, 256, 8), "makespan_s")
}
