// Package bench parses `go test -bench` output into a structured
// report, encodes it as BENCH.json, and diffs a report against the
// committed baseline. The regression gate (`make bench-smoke`) checks
// the two numbers a benchmark pass computes deterministically: the
// paper metrics — b.ReportMetric values computed from seeded
// simulations, which must match bit for bit — and allocs/op, which at
// a pinned -cpu is the same on every host and may not creep past
// AllocsTolerance. Timings depend on the machine and are never gated
// here; wall-clock claims go through the benchmark/ harness.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// so reports from machines with different core counts diff cleanly.
	Name string `json:"name"`
	// Iterations is the b.N the pass averaged over.
	Iterations int64 `json:"iterations"`
	// BytesPerOp and AllocsPerOp are the standard Go -benchmem
	// outputs.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// PaperMetrics holds every custom b.ReportMetric unit: the
	// simulation quantities the paper cares about (MTTR, stranded
	// bandwidth, loss budget). These are seed-deterministic.
	PaperMetrics map[string]float64 `json:"paper_metrics,omitempty"`
}

// Report is the BENCH.json document: every benchmark of one pass.
type Report struct {
	Benchmarks []Entry `json:"benchmarks"`
}

// stripProcs removes the trailing -N GOMAXPROCS suffix Go appends to
// benchmark names.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Parse reads `go test -bench` text output and collects every
// benchmark result line. Non-benchmark lines (package headers, PASS,
// ok) are ignored, so the raw tool output pipes straight in.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: stripProcs(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rep, fmt.Errorf("bench: bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op", "MB/s":
				// Timings are machine-dependent; drop them.
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.PaperMetrics == nil {
					e.PaperMetrics = map[string]float64{}
				}
				e.PaperMetrics[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("bench: %w", err)
	}
	return rep, nil
}

// WriteJSON encodes the report, sorted by benchmark name so the file
// is diff-stable regardless of package test order.
func (r Report) WriteJSON(w io.Writer) error {
	sorted := make([]Entry, len(r.Benchmarks))
	copy(sorted, r.Benchmarks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Benchmarks: sorted})
}

// ReadJSON decodes a report written by WriteJSON.
func ReadJSON(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: %w", err)
	}
	return rep, nil
}

// byName indexes a report's entries.
func (r Report) byName() map[string]Entry {
	m := make(map[string]Entry, len(r.Benchmarks))
	for _, e := range r.Benchmarks {
		m[e.Name] = e
	}
	return m
}

// AllocsTolerance is the allocs/op headroom Diff allows over the
// baseline (1.10 = 10% more). Allocation counts are deterministic at
// a pinned -cpu, so the slack only absorbs the rounding of a count
// averaged over b.N iterations; a zero-alloc baseline allows none.
const AllocsTolerance = 1.10

// Diff checks current against baseline and returns one human-readable
// line per regression: a benchmark missing from current, a paper
// metric that differs at all, or allocs/op above
// baseline·AllocsTolerance. Only benchmarks and metrics present in
// the baseline are checked — adding a new benchmark is not a
// regression. An empty result means the gate passes.
func Diff(baseline, current Report) []string {
	var diffs []string
	cur := current.byName()
	for _, want := range baseline.Benchmarks {
		got, ok := cur[want.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: benchmark missing from current run", want.Name))
			continue
		}
		names := make([]string, 0, len(want.PaperMetrics))
		for name := range want.PaperMetrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			wv := want.PaperMetrics[name]
			gv, ok := got.PaperMetrics[name]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s: paper metric %q missing from current run", want.Name, name))
				continue
			}
			if gv != wv {
				diffs = append(diffs, fmt.Sprintf("%s: %s = %v, baseline %v", want.Name, name, gv, wv))
			}
		}
		if got.AllocsPerOp > want.AllocsPerOp*AllocsTolerance {
			diffs = append(diffs, fmt.Sprintf("%s: allocs/op %.0f vs baseline %.0f (tolerance %.2fx)",
				want.Name, got.AllocsPerOp, want.AllocsPerOp, AllocsTolerance))
		}
	}
	return diffs
}
