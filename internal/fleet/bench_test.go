package fleet

import (
	"testing"

	"lightpath/internal/unit"
)

// BenchmarkSoakYearStreaming soaks a 100-wafer fleet for a simulated
// year at a ten-minute sample cadence — ~53k time-series rows — in
// the default streaming mode, where the reservoir and quantile sketch
// hold memory flat regardless of horizon. `make bench` runs this with
// -benchmem, so BENCH.json tracks bytes/op: a regression back toward
// O(horizon) sample retention shows up as a step change there, and
// the availability paper metric pins determinism.
func BenchmarkSoakYearStreaming(b *testing.B) {
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
	if out.SamplesSeen != 365*24*6 {
		b.Fatalf("year soak produced %d samples, want %d", out.SamplesSeen, 365*24*6)
	}
	if len(out.Samples) != cfg.withDefaults().ReservoirCap {
		b.Fatalf("streaming soak retained %d rows, want the bounded reservoir", len(out.Samples))
	}
	b.ReportMetric(out.Availability, "year_availability")
}
