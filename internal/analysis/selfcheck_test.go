package analysis

import "testing"

// TestSuiteSelfCheck runs the complete analyzer suite over the
// repository's own source from inside `go test` — the "repo analyzes
// itself" gate, one level below the lightpath-vet CLI so it cannot be
// skipped by build tooling that never invokes the binary. Unlike the
// CLI gate, this test fails on findings of ANY severity, warnings
// included: the repository's own source is held to the strictest
// standard, while downstream CI gating distinguishes errors from
// warnings.
func TestSuiteSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis is slow; skipped with -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadPatterns(./...) found no packages")
	}
	findings, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
	t.Logf("self-check: %d package(s), %d finding(s)", len(pkgs), len(findings))
}
