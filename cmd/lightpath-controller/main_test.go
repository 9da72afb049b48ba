package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfcheck runs the full robustness drill: a real daemon on a
// loopback port, driven over the wire through every rung of the
// degradation ladder, killed, and resumed from its checkpoint.
func TestSelfcheck(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-selfcheck"}, &buf); err != nil {
		t.Fatalf("selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"selfcheck: ok",
		"impossible deadlines refused",
		"fast breaker rejects",
		"establishes shed",
		"crash -> resume: stats identical",
		"audit: clean",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("selfcheck output missing %q:\n%s", marker, out)
		}
	}
}

// TestSelfcheckDeterministicAcrossSeeds drills two different seeds:
// the ladder must hold regardless of the allocator's stochastic
// stream.
func TestSelfcheckOtherSeed(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-selfcheck", "-seed", "99"}, &buf); err != nil {
		t.Fatalf("selfcheck with seed 99 failed: %v\n%s", err, buf.String())
	}
}

// TestRunFlagErrors pins the argument contract.
func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-tick-us", "-3"}, &buf); err == nil {
		t.Error("negative tick accepted")
	}
	// Each row below would start serving if its flags were accepted;
	// -listen names an out-of-range port so that regression fails at
	// once with a listen error instead of hanging.
	for _, tick := range []string{"NaN", "+Inf"} {
		if err := run([]string{"-tick-us", tick, "-listen", "127.0.0.1:99999"}, &buf); err == nil || !strings.Contains(err.Error(), "-tick-us") {
			t.Errorf("-tick-us %s: got %v, want a -tick-us error", tick, err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "d.ckpt")
	if err := run([]string{"-checkpoint", ckpt, "-ckpt-every", "0", "-listen", "127.0.0.1:99999"}, &buf); err == nil || !strings.Contains(err.Error(), "-ckpt-every") {
		t.Errorf("-checkpoint with -ckpt-every 0: got %v, want a -ckpt-every error", err)
	}
	if err := run([]string{"-resume"}, &buf); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-resume", "-checkpoint", filepath.Join(t.TempDir(), "missing.ckpt")}, &buf); err == nil {
		t.Error("-resume from a missing checkpoint accepted")
	}
}
