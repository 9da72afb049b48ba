package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture tests run one analyzer over a small package under
// testdata/src/<name> and compare its findings against `// want
// `regexp`` comments in the fixture sources. Every want must be
// matched by a finding on its line, and every finding must match a
// want — so each fixture demonstrates both true positives and true
// negatives.

func TestDeterminismFixture(t *testing.T) {
	runFixtureTest(t, Determinism, "determinism", "fixture/determinism")
}

func TestDeterminismExemptsRNG(t *testing.T) {
	runFixtureTest(t, Determinism, "determinism_rng", rngPath)
}

func TestUnitSafetyFixture(t *testing.T) {
	runFixtureTest(t, UnitSafety, "unitsafety", "fixture/unitsafety")
}

func TestLayeringFixture(t *testing.T) {
	runFixtureTest(t, Layering, "layering", "lightpath/internal/phy")
}

func TestLayeringUnknownPackage(t *testing.T) {
	runFixtureTest(t, Layering, "layering_unknown", "lightpath/internal/mystery")
}

func TestErrDropFixture(t *testing.T) {
	runFixtureTest(t, ErrDrop, "errdrop", "fixture/errdrop")
}

func TestExportDocFixture(t *testing.T) {
	runFixtureTest(t, ExportDoc, "exportdoc", "lightpath/internal/docfixture")
}

func TestExportDocSkipsExternal(t *testing.T) {
	runFixtureTest(t, ExportDoc, "exportdoc_external", "fixture/external")
}

func TestHotallocFixture(t *testing.T) {
	runFixtureTest(t, Hotalloc, "hotalloc", "fixture/hotalloc")
}

func TestDeterminismEnvFixture(t *testing.T) {
	runFixtureTest(t, Determinism, "determinism_env", "lightpath/internal/envfixture")
}

// TestParCaptureFixture proves the analyzer catches the PR 3 bug
// class: mutable state captured and written by engine.Map trial
// closures (the fixture's Sum reconstructs the historical defect).
func TestParCaptureFixture(t *testing.T) {
	runFixtureTest(t, ParCapture, "parcapture", "fixture/parcapture")
}

func TestUnitTaintFixture(t *testing.T) {
	runFixtureTest(t, UnitTaint, "unittaint", "fixture/unittaint")
}

// TestDeadExportFixture loads a main package and a package made only
// of _test.go files beside the fixture, so uses from another package,
// an instantiation and a test-only program are all in the run.
func TestDeadExportFixture(t *testing.T) {
	const dir = "testdata/src/deadexport"
	runFixtureTest(t, DeadExport, "deadexport", modulePath+"/internal/analysis/"+dir, "deadexport/user", "deadexport/harness")
}

// wantRe matches one `// want `regexp“ expectation comment.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// want is one expectation parsed from a fixture source line.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// runFixtureTest loads testdata/src/<fixture> as a package named
// asPath and each extra fixture under its own module path, runs a
// single analyzer over them, and diffs findings against the fixtures'
// want comments.
func runFixtureTest(t *testing.T, a *Analyzer, fixture, asPath string, extra ...string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := loader.LoadDirAs(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	pkgs := []*Package{pkg}
	wants := parseWants(t, dir)
	for _, e := range extra {
		dir := filepath.Join("testdata", "src", e)
		pkg, err := loader.LoadDirAs(dir, modulePath+"/internal/analysis/"+filepath.ToSlash(dir))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", e, err)
		}
		pkgs = append(pkgs, pkg)
		for key, ws := range parseWants(t, dir) {
			wants[key] = append(wants[key], ws...)
		}
	}
	findings, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		ok := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	keys := make([]string, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("%s: no finding matched want `%s`", key, w.re)
			}
		}
	}
}

// parseWants scans every .go file in dir for want comments, keyed by
// "file.go:line".
func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*want{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", e.Name(), i+1, err)
				}
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return wants
}
