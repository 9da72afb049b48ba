package experiments

import (
	"testing"

	"lightpath/internal/unit"
)

// The campaign benchmarks behind `make bench`: each runs one
// Monte-Carlo campaign end to end and reports exactly one paper
// metric via b.ReportMetric — a seed-deterministic simulation
// quantity that `make bench-smoke` diffs against BENCH_baseline.json,
// along with allocs/op. Parallel/sequential identity is not a
// benchmark concern: TestParallelMatchesSequential and the -parallel
// golden smokes hold it.

// warmup runs one untimed campaign before the measured loop: under
// `make bench`'s short time budget the expensive campaigns run only
// once or a handful of times, where a cold first iteration would
// charge heap growth and page faults to the measured runs.
func warmup(b *testing.B, run func() error) {
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

func BenchmarkTenantSweep(b *testing.B) {
	var res TenantSweepResult
	warmup(b, func() error { _, err := TenantSweep(6, 20); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = TenantSweep(6, 20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ElecMean, "elec_mean_util")
}

func BenchmarkRepairability(b *testing.B) {
	var res RepairabilityResult
	warmup(b, func() error { _, err := Repairability(21, 30); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Repairability(21, 30); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OpticalOK)/float64(res.Trials), "optical_ok_frac")
}

func BenchmarkChaos(b *testing.B) {
	var res ChaosResult
	warmup(b, func() error { _, err := Chaos(2024, 3, unit.MB); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Chaos(2024, 3, unit.MB); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BlastRatio, "blast_ratio")
}

func BenchmarkSoak(b *testing.B) {
	var res SoakResult
	warmup(b, func() error { _, err := SoakWithOptions(2024, 2, Checkpointing{}); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = SoakWithOptions(2024, 2, Checkpointing{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanAvailability, "mean_availability")
}

// BenchmarkRailFabric is the component-sharded solver's scale gate:
// 10,240 endpoints, 1,310,720 flows, 1,272 independent components.
// Its paper metric is the deterministic makespan.
func BenchmarkRailFabric(b *testing.B) {
	var res RailFabricResult
	cfg := DefaultRailFabricConfig()
	warmup(b, func() error { _, err := RailFabric(cfg); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = RailFabric(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Makespan.Micros(), "rail_makespan_us")
}

// BenchmarkControllerServe runs the lightpath-controller load
// campaign sampled at 2 trials (256k requests through the full
// deadline/retry/breaker/degrade ladder). The paper metric is the
// worst per-trial p99 setup latency — a seed-deterministic simulation
// quantity.
func BenchmarkControllerServe(b *testing.B) {
	var res ControllerResult
	run := func() error {
		var err error
		res, err = ControllerWithOptions(2024, ControllerOptions{Trials: 2})
		return err
	}
	warmup(b, run)
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WorstP99us, "ctrl_p99_us")
}

func BenchmarkScheduler(b *testing.B) {
	var res SchedulerResult
	warmup(b, func() error { _, err := Scheduler(1, 12); return err })
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Scheduler(1, 12); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rows[0].CachingReconfigs), "caching_reconfigs")
}
