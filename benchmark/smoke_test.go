package benchmark

import (
	"flag"
	"strconv"
	"testing"
)

// smokeSeconds runs each workload at about 1/1000 of its measured size.
const smokeSeconds = 0.025

// TestBenchmarkSmoke runs every workload at a tiny scale, timed and
// traced, and checks each emits exactly the metrics BENCHMARK.json
// declares for that mode, with their units, and passes its gates.
func TestBenchmarkSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if def := flag.Lookup("seconds").DefValue; def != strconv.Itoa(spec.RunSeconds) {
		t.Errorf("-seconds defaults to %s but BENCHMARK.json run_seconds is %d", def, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			rep, err := run(options{workload: w.Name, seed: 1, seconds: smokeSeconds, trace: trace, rounds: 3})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			checkEmitted(t, w.Name, trace, rep, want)
		}
	}
}

// checkEmitted compares a report's metrics with the declared set.
func checkEmitted(t *testing.T, workload string, trace bool, rep *report, want []specMetric) {
	t.Helper()
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%v: metric %s not emitted", workload, trace, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", workload, trace, m.Name, got.Unit, m.Unit)
		}
	}
	for _, name := range sortedKeys(rep.Metrics) {
		if !declared[name] {
			t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", workload, trace, name)
		}
	}
}
