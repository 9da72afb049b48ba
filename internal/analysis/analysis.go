// Package analysis implements lightpath-vet, the repository's
// static-analysis suite. It provides a multi-pass analyzer framework —
// a package loader, a shared fact base (symbol table + approximate
// call graph, see Facts), and a reporting layer (severities, SARIF
// output, per-analyzer counts) — built entirely on the standard
// library's go/parser, go/types, and go/importer: no golang.org/x/tools
// import, so go.mod stays dependency-free.
//
// The analyzers encode invariants that the simulator's reproducibility
// argument depends on and that ordinary `go vet` cannot check:
//
//   - determinism: no wall-clock, global-rand, or process-environment
//     entropy, no sync.Pool, no iteration-order-dependent output from
//     map ranges.
//   - unitsafety: no arithmetic that launders distinct internal/unit
//     newtypes through bare float64(...) casts, and no exact ==/!= on
//     float-backed unit quantities.
//   - unittaint: the interprocedural extension of unitsafety — unit
//     types laundered into float64 parameters are tracked through the
//     call graph, so cross-unit arithmetic spanning a call site is
//     caught too.
//   - layering: the package dependency DAG is explicit and enforced.
//   - errdrop: error returns may not be silently discarded, including
//     inside deferred closures and goroutine bodies.
//   - exportdoc: exported identifiers under internal/... are documented.
//   - hotalloc: loops marked //lightpath:hotloop may not allocate
//     slices or maps per iteration.
//   - parcapture: closures passed as trial bodies to engine.Map may
//     not write state captured from the enclosing function's
//     scope, directly or by calling a method that writes through its
//     receiver (the data-race class fixed by hand in PR 3, and the
//     Fig5 shared-fabric race).
//   - deadexport: every exported func, method, type, const and var of
//     a non-main package has a use outside tests somewhere in the
//     module; an export only tests reach moves into a _test.go file.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity ranks a finding for CI gating: errors fail the build,
// warnings are surfaced but advisory.
type Severity int

// The two severity levels. The zero value is SevError so an analyzer
// that never sets a severity gates at full strength.
const (
	SevError Severity = iota
	SevWarning
)

// String renders the severity in the SARIF level vocabulary.
func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Severity is the producing analyzer's severity.
	Severity Severity
	// Pos locates the offending source construct.
	Pos token.Position
	// Message describes the violation and, where possible, the fix.
	Message string
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Fset maps token positions back to file locations.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression, definition, and use maps.
	Info *types.Info
	// Facts is the cross-package fact base shared by every pass of one
	// Run: the symbol table, the approximate call graph, and derived
	// interprocedural facts. Nil only when a test runs an analyzer
	// without Run (the fixture harness always goes through Run).
	Facts *Facts

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Severity: p.analyzer.Severity,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil if the type checker
// did not record one.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (its use or its
// definition), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// Analyzer is one named check over a single package. Analyzers that
// need cross-package facts read them from Pass.Facts; the framework
// builds the fact base once per Run, before any analyzer executes.
type Analyzer struct {
	// Name identifies the analyzer in findings and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Severity classifies every finding the analyzer reports; the zero
	// value is SevError.
	Severity Severity
	// Run inspects the pass's package and reports findings via the pass.
	Run func(*Pass) error
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, UnitSafety, UnitTaint, Layering, ErrDrop, ExportDoc, Hotalloc, ParCapture, DeadExport}
}

// Run applies each analyzer to each package and returns the combined
// findings sorted by position. Before the first analyzer executes it
// builds the shared fact base (symbol table + call graph) over the
// whole package set, so interprocedural analyzers see call sites in
// every loaded package, not just the one their pass covers. A
// TestOnly package feeds only the fact base's uses; no analyzer runs
// on it. An analyzer error aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	facts := BuildFacts(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		if pkg.TestOnly {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				analyzer: a,
				findings: &findings,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
