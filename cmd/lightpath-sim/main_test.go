package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_golden.txt from this build")

func TestRunEachCommand(t *testing.T) {
	cases := map[string]string{
		"info":       "tiles per wafer",
		"fig3a":      "reconfiguration latency",
		"fig3b":      "reticle stitch loss",
		"fig4":       "waveguide density",
		"table1":     "beta ratio (elec/optics) = 3.00x",
		"table2":     "1.5x",
		"fig5":       "worst electrical bandwidth drop",
		"fig6a":      "IMPOSSIBLE",
		"fig6b":      "IMPOSSIBLE",
		"fig7":       "disjoint",
		"blast":      "16x",
		"moe":        "Mixture-of-Experts",
		"soak":       "Fleet soak",
		"hostnet":    "crossover",
		"tenants":    "rescued by optics",
		"ber":        "waterfall",
		"alltoall":   "reprogramming every step",
		"repair":     "Repairability sweep",
		"scheduler":  "offline optimal",
		"show":       "Figure 6a rack",
		"scale":      "larger tori",
		"rail":       "Rail fabric",
		"protocols":  "rendezvous",
		"moesweep":   "bytes/expert",
		"ablate":     "decentralized",
		"controller": "Controller load",
	}
	for cmd, want := range cases {
		var buf bytes.Buffer
		args := []string{cmd}
		if cmd == "fig3b" {
			args = append(args, "-samples", "2000")
		}
		if cmd == "rail" {
			// Sub-second geometry; the acceptance-scale default belongs
			// to `make rail-smoke` and the benchmarks.
			args = append(args, "-rails", "4", "-servers", "16", "-waves", "4")
		}
		if cmd == "controller" {
			// One trial here; the acceptance-scale campaign belongs to
			// `make controller-smoke` and the golden CSV.
			args = append(args, "-trials", "1")
		}
		if err := run(args, &buf); err != nil {
			t.Errorf("%s: %v", cmd, err)
			continue
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s output missing %q:\n%s", cmd, want, buf.String())
		}
	}
}

func TestRunSweepFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"table1", "-n", "1024"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4.10KB") {
		t.Fatalf("custom -n not honored:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"info", "-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
	// Without a checkpoint directory a kill leaves nothing to resume.
	for _, cmd := range []string{"soak", "controller"} {
		err := run([]string{cmd, "-seed", "7", "-trials", "1", "-kill-at", "50"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-kill-at needs -checkpoint") {
			t.Errorf("%s -kill-at without -checkpoint: got %v, want a -kill-at error", cmd, err)
		}
		// Nor is there anything to resume from.
		err = run([]string{cmd, "-seed", "7", "-trials", "1", "-resume"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-resume needs -checkpoint") {
			t.Errorf("%s -resume without -checkpoint: got %v, want a -resume error", cmd, err)
		}
		// A campaign of no trials is refused, not run at a default size.
		err = run([]string{cmd, "-seed", "7", "-trials", "0"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "trials 0 < 1") {
			t.Errorf("%s -trials 0: got %v, want a trials error", cmd, err)
		}
	}
	// An empty or negative buffer is refused before any experiment runs.
	for _, args := range [][]string{{"chaos", "-n", "-5"}, {"table1", "-n", "0"}, {"fig5", "-n", "0"}} {
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "-n") {
			t.Errorf("%v: got %v, want a -n error", args, err)
		}
	}
	// So are a sample count below one and a negative rail size, which
	// would otherwise panic or silently run the default scale.
	for _, args := range [][]string{
		{"fig3b", "-samples", "-3"}, {"fig3b", "-samples", "0"},
		{"rail", "-rails", "-1"}, {"rail", "-servers", "-1"}, {"rail", "-waves", "-1"},
	} {
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: got %v, want a %s error", args, err, args[1])
		}
	}
}

// TestRunAll holds every experiment's printed figures still: the
// stdout of "all" must match testdata/all_golden.txt byte for byte. A
// change that moves a figure on purpose regenerates the file with
//
//	go test -run '^TestRunAll$' ./cmd/lightpath-sim -update
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"all", "-samples", "2000", "-rails", "4", "-servers", "16", "-waves", "4", "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "all_golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(golden) {
		t.Errorf("all output differs from %s:\n%s", goldenPath, firstDiff(got, string(golden)))
	}
}

// firstDiff names the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

func TestParallelFlagOutputIdentical(t *testing.T) {
	// The -parallel flag must be invisible in the output: same bytes on
	// stdout and in the exported CSV either way.
	outs := make(map[string]string, 2)
	csvs := make(map[string]string, 2)
	for _, par := range []string{"true", "false"} {
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := run([]string{"chaos", "-trials", "3", "-parallel=" + par, "-csv", dir}, &buf); err != nil {
			t.Fatalf("-parallel=%s: %v", par, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "chaos.csv"))
		if err != nil {
			t.Fatal(err)
		}
		outs[par] = buf.String()
		csvs[par] = string(data)
	}
	if outs["true"] != outs["false"] {
		t.Errorf("stdout differs between -parallel modes:\n--- parallel ---\n%s\n--- sequential ---\n%s",
			outs["true"], outs["false"])
	}
	if csvs["true"] != csvs["false"] {
		t.Errorf("CSV differs between -parallel modes:\n--- parallel ---\n%s\n--- sequential ---\n%s",
			csvs["true"], csvs["false"])
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run([]string{"info", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	for _, cmd := range []string{"fig3a", "sweep", "ber", "scheduler"} {
		if err := run([]string{cmd, "-csv", dir}, &buf); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, cmd+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: csv has %d lines", cmd, len(lines))
		}
	}
	// Non-tabular commands do not create files.
	if err := run([]string{"blast", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "blast.csv")); err == nil {
		t.Fatal("non-tabular command wrote a csv")
	}
}
