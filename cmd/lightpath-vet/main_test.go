package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"lightpath/internal/analysis"
)

// TestMain hands every run one loader, so the test binary type-checks
// the module once however many runs load it.
func TestMain(m *testing.M) {
	var shared *analysis.Loader
	newLoader = func(root string) (*analysis.Loader, error) {
		if shared == nil {
			l, err := analysis.NewLoader(root)
			if err != nil {
				return nil, err
			}
			shared = l
		}
		return shared, nil
	}
	os.Exit(m.Run())
}

// moduleFree names every analyzer but deadexport, the one whose
// verdict needs the whole module loaded. The output-format tests run
// these over one small package.
func moduleFree() []string {
	var names []string
	for _, a := range analysis.All() {
		if a != analysis.DeadExport {
			names = append(names, a.Name)
		}
	}
	return names
}

// TestRepoIsClean is the acceptance gate for the analyzer suite: the
// repository itself must pass every lightpath-vet analyzer. A failure
// here means a change reintroduced a determinism, unit-safety,
// layering, error-handling, concurrency-capture or documentation
// violation, or an export nothing outside tests uses.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("lightpath-vet ./... exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); out != "" {
		t.Fatalf("lightpath-vet ./... printed findings:\n%s", out)
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, name := range []string{
		"determinism", "unitsafety", "unittaint", "layering", "errdrop",
		"exportdoc", "hotalloc", "parcapture", "deadexport",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

// TestOnlySelectsSubset runs one analyzer over one package. For
// deadexport that still loads the whole module: unit's exports are
// used only outside it, and a run that saw unit alone would call them
// dead.
func TestOnlySelectsSubset(t *testing.T) {
	for _, only := range []string{"layering", "deadexport"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-only", only, "./internal/unit"}, &stdout, &stderr); code != 0 || stdout.Len() > 0 {
			t.Fatalf("-only %s ./internal/unit exited %d\n%s%s", only, code, stdout.String(), stderr.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-only", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-only nope exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnostic: %s", stderr.String())
	}
}

// TestSARIFOutputCleanRun checks the SARIF envelope: version 2.1.0,
// one run, and a rule for every analyzer run even when there are no
// results.
func TestSARIFOutputCleanRun(t *testing.T) {
	var stdout, stderr strings.Builder
	only := moduleFree()
	if code := run([]string{"-sarif", "-only", strings.Join(only, ","), "./internal/unit"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-sarif ./internal/unit exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("sarif runs = %d, want 1", len(log.Runs))
	}
	if got := log.Runs[0].Tool.Driver.Name; got != "lightpath-vet" {
		t.Errorf("driver name = %q, want lightpath-vet", got)
	}
	rules := log.Runs[0].Tool.Driver.Rules
	if len(rules) != len(only) {
		t.Fatalf("sarif rules = %d, want %d (one per analyzer run)", len(rules), len(only))
	}
	for i, r := range rules {
		if r.ID != only[i] {
			t.Errorf("sarif rule %d = %q, want %q", i, r.ID, only[i])
		}
	}
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("clean package produced %d sarif results", len(log.Runs[0].Results))
	}
}

// TestJSONAndSARIFAreExclusive: SARIF is the one machine-readable
// output, so asking for -json alongside it is a usage error.
func TestJSONAndSARIFAreExclusive(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-json", "-sarif", "./internal/unit"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json -sarif exited %d, want 2", code)
	}
	if want := "flag provided but not defined: -json"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr missing %q:\n%s", want, stderr.String())
	}
}

// TestExitCodes runs the gate on the committed analyzer fixtures:
// error-severity findings exit 1, warning-only findings are printed
// and exit 0, and flags the tool does not define are usage errors.
// When level is set, stdout must be a SARIF log whose results all
// carry that level, and there must be at least one.
func TestExitCodes(t *testing.T) {
	// Patterns resolve relative to the module root, not the test's cwd.
	const fixtures = "./internal/analysis/testdata/src/"
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings stdout must contain
		stderr []string // substrings stderr must contain
		level  string
	}{
		{name: "errors", args: []string{"-only", "errdrop", fixtures + "errdrop"}, code: 1,
			stdout: []string{"errdrop/fixture.go:20:2: call discards the error"},
			stderr: []string{"6 error finding(s)"}},
		{name: "warnings", args: []string{"-only", "exportdoc", fixtures + "exportdoc"}, code: 0,
			stdout: []string{"exportdoc/fixture.go:10:6: exported type Undocumented is undocumented"},
			stderr: []string{"5 warning(s) in 1 package(s), no errors"}},
		{name: "sarif", args: []string{"-sarif", "-only", "errdrop", fixtures + "errdrop"}, code: 1,
			stdout: []string{`"uri": "internal/analysis/testdata/src/errdrop/fixture.go"`},
			level:  "error"},
		{name: "baseline", args: []string{"-baseline", "x.json", "./internal/unit"}, code: 2,
			stderr: []string{"flag provided but not defined: -baseline"}},
		{name: "write-baseline", args: []string{"-write-baseline", "./internal/unit"}, code: 2,
			stderr: []string{"flag provided but not defined: -write-baseline"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("%v exited %d, want %d\n%s%s", tc.args, code, tc.code, stdout.String(), stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			if tc.level == "" {
				return
			}
			var log struct {
				Runs []struct {
					Results []struct {
						Level string `json:"level"`
					} `json:"results"`
				} `json:"runs"`
			}
			if err := json.Unmarshal([]byte(stdout.String()), &log); err != nil || len(log.Runs) != 1 {
				t.Fatalf("output is not a one-run SARIF log (%v):\n%s", err, stdout.String())
			}
			results := log.Runs[0].Results
			if len(results) == 0 {
				t.Fatal("SARIF log has no results")
			}
			for i, r := range results {
				if r.Level != tc.level {
					t.Errorf("result %d level = %q, want %q", i, r.Level, tc.level)
				}
			}
		})
	}
}

// TestCountsOutput checks that -counts prints a per-analyzer tally
// including zero rows.
func TestCountsOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-counts", "-only", strings.Join(moduleFree(), ","), "./internal/unit"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-counts exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "findings by analyzer") {
		t.Fatalf("-counts printed no tally:\n%s", out)
	}
	for _, name := range []string{"determinism", "parcapture", "unittaint"} {
		if !strings.Contains(out, name) {
			t.Errorf("-counts tally missing analyzer %q:\n%s", name, out)
		}
	}
}
