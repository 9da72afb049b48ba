package loadgen

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/invariant"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// smallConfig is a fast campaign that still exercises every mechanism:
// contention for shedding, tight deadlines for misses, chaos for
// breaker traffic and reroutes.
func smallConfig(seed uint64) Config {
	var rates chaos.Rates
	rates.MTBF[chaos.ChipFailure] = 20 * unit.Millisecond
	return Config{
		Seed:             seed,
		Agents:           16,
		ArrivalsPerAgent: 60,
		MeanInterarrival: 150 * unit.Microsecond,
		MeanHold:         unit.Millisecond,
		Width:            2,
		Deadline:         120 * unit.Microsecond,
		Ctrl: ctrl.Config{
			QueueCap:         16,
			EstablishService: 8 * unit.Microsecond,
			Audit:            invariant.Paranoid,
		},
		Backoff: ctrl.Backoff{
			Base: 100 * unit.Microsecond, Factor: 2,
			Cap: 2 * unit.Millisecond, Jitter: 0.5, MaxRetries: 4,
		},
		Rates: rates,
	}
}

// TestRunDeterministic replays the same campaign twice and demands
// identical Results in every field — latencies, goodput and event
// count included.
func TestRunDeterministic(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	a, err := Run(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	invariant.ResetGlobal()
	b, err := Run(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different campaigns:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestRunConservesRequests checks the accounting identity: every fresh
// request either lands (served), is abandoned after retries (lost), or
// dies at an exhausted non-retryable rejection — and nothing leaks.
// On the server side, every submitted attempt ends in exactly one
// terminal outcome counter, as ctrl.Stats promises.
func TestRunConservesRequests(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	for _, seed := range []uint64{1, 2, 3, 42, 2024} {
		runConserved(t, smallConfig(seed))
	}
	cfg := smallConfig(7)
	r := runConserved(t, cfg)
	if want := cfg.Agents * cfg.ArrivalsPerAgent; r.Requests != want {
		t.Fatalf("campaign issued %d requests, configured %d", r.Requests, want)
	}
	if r.Attempts < r.Requests {
		t.Fatalf("attempts %d below requests %d", r.Attempts, r.Requests)
	}
	if r.Leaked != 0 {
		t.Fatalf("%d circuits leaked their release", r.Leaked)
	}
	if r.Violations != 0 {
		t.Fatalf("%d invariant violations", r.Violations)
	}
	// The stress config must actually engage its mechanisms, or the
	// campaign proves nothing.
	if r.Shed == 0 || r.DeadlineMiss == 0 || r.Retries == 0 {
		t.Fatalf("campaign too gentle: shed %d, deadline misses %d, retries %d",
			r.Shed, r.DeadlineMiss, r.Retries)
	}
	if r.Faults == 0 || r.BreakerTrips == 0 {
		t.Fatalf("chaos dormant: %d faults, %d breaker trips", r.Faults, r.BreakerTrips)
	}
	if r.P99us < r.P50us || r.P50us <= 0 {
		t.Fatalf("implausible latency quantiles p50=%v p99=%v", r.P50us, r.P99us)
	}
}

// runConserved runs cfg's campaign and asserts the server-side
// identity attempts == arrivals == the sum of the terminal outcome
// counters.
func runConserved(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := build(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.run()
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	st := c.srv.Stats()
	outcomes := st.Served + st.Shed + st.DeadlineMiss + st.BreakerRejects +
		st.NoPath + st.EndpointFailed + st.UnknownCircuit + st.BadRequest
	if r.Attempts != st.Arrivals || st.Arrivals != outcomes {
		t.Fatalf("seed %d: %d attempts, %d arrivals, %d terminal outcomes (%+v)",
			cfg.Seed, r.Attempts, st.Arrivals, outcomes, st)
	}
	return r
}

// TestKillResumeAnyBoundary stops the campaign at a spread of event
// boundaries, resumes from the checkpoint, and demands the resumed
// Result be identical to the uninterrupted run — kill-at-any-boundary
// crash tolerance.
func TestKillResumeAnyBoundary(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(1234)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Events < 1000 {
		t.Fatalf("campaign too short (%d events) to make boundary kills interesting", want.Events)
	}
	for _, stopAt := range []uint64{1, 17, 500, want.Events / 2, want.Events - 1} {
		path := filepath.Join(t.TempDir(), "kill.ckpt")
		opts := CheckpointOptions{Path: path, EveryEvents: 256, StopAfterEvents: stopAt}
		invariant.ResetGlobal()
		if _, err := RunCheckpointed(cfg, opts); !errors.Is(err, ErrStopped) {
			t.Fatalf("stop at %d: %v, want ErrStopped", stopAt, err)
		}
		invariant.ResetGlobal()
		got, err := Resume(cfg, CheckpointOptions{Path: path, EveryEvents: 256})
		if err != nil {
			t.Fatalf("resume from boundary %d: %v", stopAt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kill at %d diverged from the uninterrupted run:\n  resumed %+v\n  want    %+v",
				stopAt, got, want)
		}
	}
}

// TestParentCheckpointFixture holds the checkpoint format still: the
// committed file was written by the campaign before it moved onto
// evloop, stopped at event 500 of smallConfig(1234) with a 256-event
// cadence. Today's campaign must write identical bytes at that
// boundary, and resuming the committed file must reach the
// uninterrupted Result.
func TestParentCheckpointFixture(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-campaign-event500.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(1234)
	dir := t.TempDir()
	path := filepath.Join(dir, "now.ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, EveryEvents: 256, StopAfterEvents: 500}); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatalf("checkpoint at event 500 differs from the committed one (%d vs %d bytes)", len(got), len(fixture))
	}

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumePath := filepath.Join(dir, "parent.ckpt")
	if err := os.WriteFile(resumePath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Resume(cfg, CheckpointOptions{Path: resumePath, EveryEvents: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("resumed committed checkpoint diverges:\n  resumed %+v\n  want    %+v", out, want)
	}
}

// TestResumeRejectsConfigChange pins the digest gate: a checkpoint
// taken under one campaign config must refuse to resume under another.
func TestResumeRejectsConfigChange(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	cfg := smallConfig(5)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	opts := CheckpointOptions{Path: path, EveryEvents: 128, StopAfterEvents: 400}
	if _, err := RunCheckpointed(cfg, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("seeding checkpoint: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"agents":   func(c *Config) { c.Agents-- },
		"width":    func(c *Config) { c.Width = 1 },
		"backoff":  func(c *Config) { c.Backoff.MaxRetries++ },
		"deadline": func(c *Config) { c.Deadline *= 2 },
		"chaos":    func(c *Config) { c.Rates.MTBF[chaos.ChipFailure] = 0 },
	} {
		bad := cfg
		mutate(&bad)
		invariant.ResetGlobal()
		if _, err := Resume(bad, CheckpointOptions{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
			t.Errorf("%s change resumed anyway: %v", name, err)
		}
	}
}
