package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: lightpath/internal/experiments
BenchmarkTenantSweep-8   	      10	  123456 ns/op	    2345 B/op	      67 allocs/op	         0.420 stranded_frac
BenchmarkChaos-8         	       2	 9876543 ns/op	  887766 B/op	    5544 allocs/op	        16.00 blast_ratio
BenchmarkThroughput-8    	     100	    1000 ns/op	 512.00 MB/s
BenchmarkDecode-8        	 1000000	   41.88 ns/op	       0 B/op	       0 allocs/op	        56.00 payload_bytes
PASS
ok  	lightpath/internal/experiments	1.234s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	ts := rep.Benchmarks[0]
	if ts.Name != "BenchmarkTenantSweep" {
		t.Fatalf("name = %q (procs suffix not stripped?)", ts.Name)
	}
	if ts.Iterations != 10 || ts.BytesPerOp != 2345 || ts.AllocsPerOp != 67 {
		t.Fatalf("standard fields wrong: %+v", ts)
	}
	if len(ts.PaperMetrics) != 1 || ts.PaperMetrics["stranded_frac"] != 0.420 {
		t.Fatalf("paper metrics wrong (ns/op leaked?): %+v", ts.PaperMetrics)
	}
	if rep.Benchmarks[1].PaperMetrics["blast_ratio"] != 16 {
		t.Fatalf("chaos metric wrong: %+v", rep.Benchmarks[1])
	}
	// MB/s is machine-dependent and must not land in paper metrics.
	if len(rep.Benchmarks[2].PaperMetrics) != 0 {
		t.Fatalf("MB/s leaked into paper metrics: %+v", rep.Benchmarks[2])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(rep.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d vs %d", len(back.Benchmarks), len(rep.Benchmarks))
	}
	// WriteJSON sorts by name: BenchmarkChaos first.
	if back.Benchmarks[0].Name != "BenchmarkChaos" {
		t.Fatalf("not sorted: first = %q", back.Benchmarks[0].Name)
	}
	if back.Benchmarks[2].PaperMetrics["stranded_frac"] != 0.420 || back.Benchmarks[0].AllocsPerOp != 5544 {
		t.Fatalf("metrics lost: %+v", back.Benchmarks)
	}
}

// diffCase edits the sample by replacing one substring and lists the
// substrings the resulting diff lines must carry, one per line, in
// order (none means the gate passes).
type diffCase struct {
	name     string
	from, to string
	want     []string
}

// runDiffCases runs Diff of each edited sample against the unedited
// one. The gate is the one function Diff; its cases are grouped into
// the paper-metric half and the allocation half below.
func runDiffCases(t *testing.T, cases []diffCase) {
	t.Helper()
	base, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := sample
			if tc.from != "" {
				if !strings.Contains(text, tc.from) {
					t.Fatalf("sample does not contain %q", tc.from)
				}
				text = strings.Replace(text, tc.from, tc.to, 1)
			}
			cur, err := Parse(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			diffs := Diff(base, cur)
			if len(diffs) != len(tc.want) {
				t.Fatalf("got %d diffs %q, want %d matching %q", len(diffs), diffs, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(diffs[i], w) {
					t.Errorf("diff %d = %q, want it to contain %q", i, diffs[i], w)
				}
			}
		})
	}
}

// missingChaos and newBenchmark are the edits both halves share: the
// benchmark loop of Diff reports a dropped benchmark and ignores a new
// one whatever its metrics and allocations.
var (
	missingChaos = diffCase{name: "missing-benchmark", from: "BenchmarkChaos-8", to: "BenchmarkRenamed-8",
		want: []string{"BenchmarkChaos: benchmark missing"}}
	newBenchmark = diffCase{name: "new-benchmark-ok", from: "PASS",
		to: "BenchmarkNew-8 	       1	 1 ns/op	 9999 B/op	 9999 allocs/op	 1.00 anything\nPASS"}
)

// TestDiffPaperMetrics checks that Diff holds every paper metric bit
// for bit and never looks at ns/op.
func TestDiffPaperMetrics(t *testing.T) {
	runDiffCases(t, []diffCase{
		{name: "identical"},
		{name: "metric-drift", from: "0.420 stranded_frac", to: "0.500 stranded_frac",
			want: []string{"BenchmarkTenantSweep: stranded_frac"}},
		{name: "paper-metric-missing", from: "16.00 blast_ratio", to: "16.00 other_metric",
			want: []string{`"blast_ratio" missing`}},
		{name: "timings-ignored", from: "123456 ns/op", to: "999999999 ns/op"},
		missingChaos,
		newBenchmark,
	})
}

// TestCompareTimings checks the allocation half of Diff, the part that
// survives of the old timing comparison: allocs/op may grow by at most
// AllocsTolerance, a zero-allocation path may not allocate at all, and
// ns/op is not compared.
func TestCompareTimings(t *testing.T) {
	runDiffCases(t, []diffCase{
		{name: "identical"},
		{name: "within-tolerance", from: "67 allocs/op", to: "73 allocs/op"},
		{name: "allocs-regression", from: "67 allocs/op", to: "74 allocs/op",
			want: []string{"BenchmarkTenantSweep: allocs/op 74 vs baseline 67"}},
		{name: "zero-alloc-now-one", from: "0 B/op	       0 allocs/op", to: "8 B/op	       1 allocs/op",
			want: []string{"BenchmarkDecode: allocs/op 1 vs baseline 0"}},
		{name: "improvement-ok", from: "67 allocs/op", to: "10 allocs/op"},
		{name: "ns-op-ignored", from: "123456 ns/op", to: "999999999 ns/op"},
		missingChaos,
		newBenchmark,
	})
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// TestEveryBenchmarkReportsOnePaperMetric is the harness guard: each
// Benchmark* function in any bench_test.go must call b.ReportMetric
// exactly once, so BENCH.json carries exactly one deterministic paper
// metric per benchmark for the regression diff. Every custom unit is
// a paper metric and is diffed bit for bit, so a wall-clock rate
// (ns/flow) reported here would fail the gate on every other host.
func TestEveryBenchmarkReportsOnePaperMetric(t *testing.T) {
	root := moduleRoot(t)
	var checked int
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if info.Name() != "bench_test.go" || strings.Contains(path, "internal/bench") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			count := 0
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "ReportMetric" {
					return true
				}
				count++
				return true
			})
			if count != 1 {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s: %s calls ReportMetric %d times, want exactly 1", rel, fn.Name.Name, count)
			}
			checked++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no benchmarks found in any bench_test.go — harness wiring broken")
	}
}
