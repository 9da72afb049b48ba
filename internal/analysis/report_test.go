package analysis

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// mkFinding builds a finding at the given location.
func mkFinding(analyzer, file string, line int, msg string) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Message:  msg,
	}
}

// TestHashIsModuleRelative: the path a finding is reported under is
// relative to the module root, so the same finding seen from two
// checkout locations is identified the same way.
func TestHashIsModuleRelative(t *testing.T) {
	a := relPath(filepath.FromSlash("/home/a/mod"), filepath.FromSlash("/home/a/mod/pkg/x.go"))
	b := relPath(filepath.FromSlash("/ci/workdir/mod"), filepath.FromSlash("/ci/workdir/mod/pkg/x.go"))
	if a != b || a != "pkg/x.go" {
		t.Errorf("path depends on checkout location: %q vs %q, want %q", a, b, "pkg/x.go")
	}
}

// TestWriteSARIFShape checks the envelope and the per-result fields a
// code-scanning consumer reads: rule ids, levels and module-relative
// URIs. The same findings written from two checkout locations must
// give the same log.
func TestWriteSARIFShape(t *testing.T) {
	sarifAt := func(root string) (string, []Finding) {
		findings := []Finding{
			{Analyzer: "errdrop", Severity: SevError,
				Pos:     token.Position{Filename: filepath.Join(root, "pkg", "a.go"), Line: 4, Column: 2},
				Message: "call discards the error"},
			{Analyzer: "exportdoc", Severity: SevWarning,
				Pos:     token.Position{Filename: filepath.Join(root, "pkg", "b.go"), Line: 9, Column: 1},
				Message: "exported X is undocumented"},
		}
		var buf strings.Builder
		if err := WriteSARIF(&buf, root, All(), findings); err != nil {
			t.Fatal(err)
		}
		return buf.String(), findings
	}
	out, findings := sarifAt(filepath.FromSlash("/home/a/mod"))
	if other, _ := sarifAt(filepath.FromSlash("/ci/workdir/mod")); other != out {
		t.Errorf("SARIF depends on the checkout location:\n%s\nvs\n%s", out, other)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "lightpath-vet" {
		t.Errorf("driver = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(All()) {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), len(All()))
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for i, r := range run.Results {
		if r.RuleID != findings[i].Analyzer {
			t.Errorf("result %d ruleId = %q, want %q", i, r.RuleID, findings[i].Analyzer)
		}
		if r.Level != findings[i].Severity.String() {
			t.Errorf("result %d level = %q, want %q", i, r.Level, findings[i].Severity)
		}
		if run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %d ruleIndex %d does not point at %q", i, r.RuleIndex, r.RuleID)
		}
		uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if want := []string{"pkg/a.go", "pkg/b.go"}[i]; uri != want {
			t.Errorf("result %d uri = %q, want module-relative %q", i, uri, want)
		}
	}
	if r := run.Results[0].Locations[0].PhysicalLocation.Region; r.StartLine != 4 || r.StartColumn != 2 {
		t.Errorf("region = %+v, want 4:2", r)
	}
}

// TestWriteSARIFRejectsUnknownAnalyzer: a finding outside the declared
// rule set is an error, not a dangling ruleId.
func TestWriteSARIFRejectsUnknownAnalyzer(t *testing.T) {
	var buf strings.Builder
	err := WriteSARIF(&buf, "/mod", All(), []Finding{mkFinding("mystery", "/mod/a.go", 1, "x")})
	if err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

// TestCountByAnalyzer tallies per analyzer name.
func TestCountByAnalyzer(t *testing.T) {
	counts := CountByAnalyzer([]Finding{
		mkFinding("errdrop", "/mod/a.go", 1, "x"),
		mkFinding("errdrop", "/mod/a.go", 2, "y"),
		mkFinding("hotalloc", "/mod/b.go", 3, "z"),
	})
	if counts["errdrop"] != 2 || counts["hotalloc"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}
