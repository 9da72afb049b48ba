// Command lightpath-vet runs the repository's static-analysis suite:
// repo-specific analyzers that enforce determinism, unit safety (both
// per-package and interprocedurally), the package layering DAG, error
// handling, export documentation, allocation-free hot loops, safe
// closure capture in parallel trials, and exported API with a caller.
// It is built entirely on the standard library (go/parser + go/types) so
// the module stays dependency-free.
//
// Usage:
//
//	go run ./cmd/lightpath-vet ./...
//	go run ./cmd/lightpath-vet -only determinism,layering ./internal/...
//	go run ./cmd/lightpath-vet -sarif ./... > vet.sarif
//	go run ./cmd/lightpath-vet -counts ./...
//	go run ./cmd/lightpath-vet -list
//
// Each analyzer has a severity: error-severity findings fail the build
// (exit 1), warning-severity findings are printed but advisory.
//
// Output is one finding per line in file:line:col form, or a SARIF
// 2.1.0 log with -sarif for code-scanning upload. Exit codes: 0 clean
// (or warnings only), 1 error-severity findings, 2 usage or load
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"lightpath/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// newLoader builds a run's loader. The tests swap it for one that
// hands every run the same loader, so the module is type-checked once
// per test binary.
var newLoader = analysis.NewLoader

// run executes the tool and returns its exit code: 0 clean or
// warnings-only, 1 when error-severity findings were reported, 2 on
// load or usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightpath-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asSARIF := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of file:line:col lines")
	counts := fs.Bool("counts", false, "print per-analyzer finding counts")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lightpath-vet [-list] [-sarif] [-only a,b] [-counts] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %-8s %s\n", a.Name, a.Severity, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "lightpath-vet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "lightpath-vet:", err)
		return 2
	}
	loader, err := newLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "lightpath-vet:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "lightpath-vet:", err)
		return 2
	}
	program := pkgs
	if slices.Contains(analyzers, analysis.DeadExport) {
		// An export's verdict depends on every package that could use
		// it, so deadexport runs over the whole module and only the
		// findings inside the named packages print.
		if program, err = loader.LoadPatterns(append([]string{"./..."}, patterns...)); err != nil {
			fmt.Fprintln(stderr, "lightpath-vet:", err)
			return 2
		}
	}

	findings, err := analysis.Run(program, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "lightpath-vet:", err)
		return 2
	}
	findings = within(findings, pkgs)

	if *asSARIF {
		if err := analysis.WriteSARIF(stdout, root, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "lightpath-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	if *counts {
		printCounts(stderr, analyzers, findings)
	}

	errs := 0
	for _, f := range findings {
		if f.Severity == analysis.SevError {
			errs++
		}
	}
	if errs > 0 {
		fmt.Fprintf(stderr, "lightpath-vet: %d error finding(s) in %d package(s)", errs, len(pkgs))
		if w := len(findings) - errs; w > 0 {
			fmt.Fprintf(stderr, " (+%d warning(s))", w)
		}
		fmt.Fprintln(stderr)
		return 1
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "lightpath-vet: %d warning(s) in %d package(s), no errors\n", len(findings), len(pkgs))
	}
	return 0
}

// within keeps the findings located in one of pkgs' directories.
func within(findings []analysis.Finding, pkgs []*analysis.Package) []analysis.Finding {
	dirs := map[string]bool{}
	for _, p := range pkgs {
		dirs[p.Dir] = true
	}
	var out []analysis.Finding
	for _, f := range findings {
		if dirs[filepath.Dir(f.Pos.Filename)] {
			out = append(out, f)
		}
	}
	return out
}

// printCounts renders a per-analyzer finding tally in suite order.
// Analyzers with zero findings are listed too: "0" is a result worth
// seeing in CI logs.
func printCounts(w io.Writer, analyzers []*analysis.Analyzer, findings []analysis.Finding) {
	by := analysis.CountByAnalyzer(findings)
	fmt.Fprintln(w, "lightpath-vet: findings by analyzer:")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-12s %-8s %3d\n", a.Name, a.Severity, by[a.Name])
	}
}

// selectAnalyzers resolves the -only flag to a subset of the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
