package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json this package reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric BENCHMARK.json declares.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, the parent of
// this package's directory.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runNoise reruns each workload n times, each in a child process with
// its own seed, and reports every end-to-end metric's median, quartiles
// and quartile spread against its bound. It fails when a spread
// exceeds its bound. Regression checks compare runs made with
// different seeds, so the spread counts the inputs' variance as well
// as the machine's.
func runNoise(t *testing.T, n int) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if *flagWorkload == "" || *flagWorkload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		t.Fatalf("no workload named %q in BENCHMARK.json", *flagWorkload)
	}
	fmt.Printf("%d runs per workload, -seconds %g, seeds %d..%d\n", n, *flagSeconds, *flagSeed, *flagSeed+uint64(n)-1)
	values := map[string]map[string][]float64{}
	for _, w := range names {
		values[w] = map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := *flagSeed + uint64(i)
			rep, err := runChild(w, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			fmt.Printf("%-15s seed %d:", w, seed)
			for _, m := range spec.EndToEnd {
				v := rep.Metrics[m.Name].Value
				values[w][m.Name] = append(values[w][m.Name], v)
				fmt.Printf(" %s=%.6g", m.Name, v)
			}
			fmt.Println()
		}
	}
	fmt.Printf("%-15s %-10s %12s %12s %12s %10s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "bound")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			q1, med, q3 := quartiles(values[w][m.Name])
			spread := (q3 - q1) / med
			verdict := "ok"
			if spread > m.Bound {
				verdict = "WIDE"
				t.Errorf("%s %s: quartile spread %.4f exceeds bound %.2f", w, m.Name, spread, m.Bound)
			}
			fmt.Printf("%-15s %-10s %12.6g %12.6g %12.6g %10.4f %6.2f %s\n", w, m.Name, med, q1, q3, spread, m.Bound, verdict)
		}
	}
}

// runChild runs one workload in a fresh process of this test binary and
// returns its result line.
func runChild(workload string, seed uint64) (*report, error) {
	cmd := exec.Command(os.Args[0],
		"-test.run=^TestBenchmark$", "-test.count=1", "-test.timeout=10m",
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(*flagSeconds))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s%s", err, stdout.String(), stderr.String())
	}
	return parseResultLine(stdout.String())
}

// parseResultLine decodes the JSON object on the last non-empty line of
// a run's standard output.
func parseResultLine(out string) (*report, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	return &rep, nil
}

// sortedKeys returns a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
