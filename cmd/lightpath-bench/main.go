// Command lightpath-bench turns `go test -bench` output into the
// repo's BENCH.json report and gates regressions against a committed
// baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -cpu 1 ./... | lightpath-bench -o BENCH.json
//	go test -run '^$' -bench . -benchmem -cpu 1 ./... | lightpath-bench -baseline BENCH_baseline.json
//
// The report records each benchmark's B/op, allocs/op and its custom
// b.ReportMetric values ("paper metrics"); ns/op is dropped. With
// -baseline the report is diffed against the committed baseline and
// any regression fails the run: a paper metric that moved at all, or
// allocs/op above bench.AllocsTolerance times the baseline. Both are
// deterministic at -cpu 1, so this is the `make bench-smoke` gate: a
// refactor that changes what the simulation computes, or reintroduces
// an allocation on a zero-alloc path, cannot slip through as noise.
// Timings are not gated; wall-clock claims go through benchmark/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lightpath/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lightpath-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("lightpath-bench", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the parsed report as JSON to this file (\"-\" for stdout)")
	basePath := fs.String("baseline", "", "diff paper metrics and allocs/op against this committed report; a regression fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := bench.Parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (forgot -bench?)")
	}
	if *outPath == "-" {
		if err := rep.WriteJSON(out); err != nil {
			return err
		}
	} else if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmarks to %s\n", len(rep.Benchmarks), *outPath)
	}
	if *basePath != "" {
		f, err := os.Open(*basePath)
		if err != nil {
			return err
		}
		base, err := bench.ReadJSON(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		if diffs := bench.Diff(base, rep); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintln(out, "regression:", d)
			}
			return fmt.Errorf("%d regression(s) against %s", len(diffs), *basePath)
		}
		fmt.Fprintf(out, "paper metrics match %s and allocs/op are within %.2fx of it (%d benchmarks checked)\n",
			*basePath, bench.AllocsTolerance, len(base.Benchmarks))
	}
	return nil
}
