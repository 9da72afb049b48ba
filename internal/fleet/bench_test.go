package fleet

import (
	"testing"

	"lightpath/internal/unit"
)

// BenchmarkSoakYear soaks a 100-wafer fleet for a simulated year at a
// ten-minute sample cadence, keeping all ~53k time-series rows. `make
// bench` runs this with -benchmem, so BENCH.json tracks bytes/op and
// allocs/op of a long horizon, and the availability paper metric pins
// determinism.
func BenchmarkSoakYear(b *testing.B) {
	cfg := Config{
		Seed:        31,
		Wafers:      100,
		Horizon:     365 * unit.Day,
		SampleEvery: 10 * unit.Minute,
		Jobs:        100,
	}
	for c := range cfg.Rates.MTBF {
		cfg.Rates.MTBF[c] = cfg.Horizon / 600
	}
	run := func() *Outcome {
		out, err := RunCheckpointed(cfg, CheckpointOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	out := run() // warm the page cache and heap before the measured pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = run()
	}
	if len(out.Samples) != 365*24*6 {
		b.Fatalf("year soak produced %d samples, want %d", len(out.Samples), 365*24*6)
	}
	b.ReportMetric(out.Availability, "year_availability")
}
