// Package benchmark measures the lightpath controller end to end: the
// daemon serving real loopback TCP clients, and the in-process chaos
// load campaign. Every file is a _test.go file because every
// wall-clock read must stay out of the analysed sources (the
// determinism analyzer forbids time.Now outside tests). Run it with
//
//	go test ./benchmark -run '^TestBenchmark$' -count=1 -timeout 30m \
//		-args -workload serve-steady -seed 1 [-seconds 25] [-trace 1]
//
// or through run.sh, which builds the test binary inside the checkout
// first. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package benchmark

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"testing"
)

var (
	flagWorkload = flag.String("workload", "", "workload to run: "+workloadNames())
	flagSeed     = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	flagSeconds  = flag.Float64("seconds", 25, "measurement budget in seconds; sizes the rounds")
	flagTrace    = flag.Int("trace", 0, "1 runs the traced per-layer variant instead of the timed one")
	flagNoise    = flag.Int("noise", 0, "rerun each workload (or only -workload) this many times in child processes and report the spread")
)

// rounds is the number of timed rounds per run; one untimed warm-up
// round precedes them.
const rounds = 20

// options are one run's inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	rounds   int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems are the correctness gates that failed; any one makes
	// Correct false.
	problems []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

// set records a metric.
func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed correctness gate.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload runs one named workload, timed or traced.
type workload func(opts options) (*report, error)

var workloads = map[string]workload{
	"serve-steady":   runServeSteady,
	"serve-overload": runServeOverload,
	"campaign-chaos": runCampaign,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// emitted is the report TestMain prints after the tests finish, so the
// JSON object follows the testing package's own PASS/FAIL line.
var emitted *report

func TestMain(m *testing.M) {
	code := m.Run()
	if emitted != nil {
		line, err := json.Marshal(emitted)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: encoding result:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	os.Exit(code)
}

// TestBenchmark is the entry point. Without -workload (a plain
// `go test ./...`) it skips.
func TestBenchmark(t *testing.T) {
	if *flagNoise > 0 {
		runNoise(t, *flagNoise)
		return
	}
	if *flagWorkload == "" {
		t.Skip("no -workload given; see benchmark/README.md")
	}
	run, ok := workloads[*flagWorkload]
	if !ok {
		t.Fatalf("unknown workload %q; want one of %s", *flagWorkload, workloadNames())
	}
	if *flagTrace != 0 && *flagTrace != 1 {
		t.Fatalf("-trace %d: want 0 or 1", *flagTrace)
	}
	if *flagSeconds <= 0 {
		t.Fatalf("-seconds %g: want a positive budget", *flagSeconds)
	}
	rep, err := run(options{
		workload: *flagWorkload,
		seed:     *flagSeed,
		seconds:  *flagSeconds,
		trace:    *flagTrace == 1,
		rounds:   rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	emitted = rep
	for _, p := range rep.problems {
		t.Error(p)
	}
	printTable(rep)
}

// printTable writes the metrics to standard error for a human reader.
func printTable(rep *report) {
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// peakRSSMB returns the process's peak resident set size (the kernel's
// high-water mark, VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
