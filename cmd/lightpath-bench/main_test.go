package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `BenchmarkEstablish-8   	     100	   12345 ns/op	       0 B/op	       0 allocs/op	        14.20 loss_db
BenchmarkChaos-8       	       2	 9876543 ns/op	  887766 B/op	    5544 allocs/op	        16.00 blast_ratio
PASS
`

func TestWriteReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	var out bytes.Buffer
	if err := run([]string{"-o", path}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BenchmarkEstablish", "loss_db", "blast_ratio", "allocs_per_op"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q:\n%s", want, data)
		}
	}
}

func TestBaselineGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_baseline.json")
	var out bytes.Buffer
	if err := run([]string{"-o", base}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	// Same metrics pass; a changed timing is still a pass.
	faster := strings.ReplaceAll(sample, "12345 ns/op", "999 ns/op")
	if err := run([]string{"-baseline", base}, strings.NewReader(faster), &out); err != nil {
		t.Fatalf("timing-only change failed the gate: %v\n%s", err, out.String())
	}
	// A drifted paper metric fails.
	drifted := strings.ReplaceAll(sample, "14.20 loss_db", "15.00 loss_db")
	out.Reset()
	if err := run([]string{"-baseline", base}, strings.NewReader(drifted), &out); err == nil {
		t.Fatalf("paper-metric drift passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "loss_db") {
		t.Fatalf("diff does not name the metric:\n%s", out.String())
	}
}

// TestCompareGate checks the allocation half of the -baseline gate:
// allocs/op within the tolerance passes whatever ns/op does, and
// creep past it fails and names the benchmark.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_baseline.json")
	var out bytes.Buffer
	if err := run([]string{"-o", base}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	within := strings.ReplaceAll(sample, "5544 allocs/op", "6000 allocs/op")
	within = strings.ReplaceAll(within, "9876543 ns/op", "99999999 ns/op")
	if err := run([]string{"-baseline", base}, strings.NewReader(within), &out); err != nil {
		t.Fatalf("in-tolerance run failed the gate: %v\n%s", err, out.String())
	}
	out.Reset()
	creep := strings.ReplaceAll(sample, "5544 allocs/op", "7000 allocs/op")
	if err := run([]string{"-baseline", base}, strings.NewReader(creep), &out); err == nil {
		t.Fatalf("allocation creep passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkChaos") {
		t.Fatalf("diff does not name the benchmark:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Error("empty input accepted")
	}
	if err := run([]string{"-baseline", "/nonexistent.json"}, strings.NewReader(sample), &out); err == nil {
		t.Error("missing baseline accepted")
	}
	if err := run([]string{"-badflag"}, strings.NewReader(sample), &out); err == nil {
		t.Error("bad flag accepted")
	}
}
