package loadgen

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/invariant"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// update makes TestParentCheckpointFixture rewrite its fixture from
// this build instead of checking it.
var update = flag.Bool("update", false, "rewrite testdata/parent-campaign-event500.ckpt from this build")

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
	a, err := RunCheckpointed(smallConfig(42), CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCheckpointed(smallConfig(42), CheckpointOptions{})
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
	cfg := smallConfig(1234)
	want, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Events < 1000 {
		t.Fatalf("campaign too short (%d events) to make boundary kills interesting", want.Events)
	}
	for _, stopAt := range []uint64{1, 17, 500, want.Events / 2, want.Events - 1} {
		path := filepath.Join(t.TempDir(), "kill.ckpt")
		opts := CheckpointOptions{Path: path, EveryEvents: 256, StopAfterEvents: stopAt}
		if _, err := RunCheckpointed(cfg, opts); !errors.Is(err, ErrStopped) {
			t.Fatalf("stop at %d: %v, want ErrStopped", stopAt, err)
		}
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

// canonicalCheckpoint re-encodes a checkpoint file through this
// package's own restoreState and encodeState. The encoder leaves out
// state no reader can tell apart — empty buses past a lane's last
// occupied one, fiber rows with a zero count — so a file written
// before it did compares in today's canonical form.
func canonicalCheckpoint(t *testing.T, cfg Config, file []byte) []byte {
	t.Helper()
	version, payload, err := snapshot.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDecoder(payload)
	if err := c.restoreState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	var e snapshot.Encoder
	c.encodeState(&e)
	return snapshot.Seal(version, e.Bytes())
}

// TestParentCheckpointFixture holds the checkpoint format still: the
// committed file is the campaign's checkpoint at event 500 of
// smallConfig(1234) with a 256-event cadence, in the format
// checkpointVersion names. Today's campaign must write the bytes that
// file re-encodes to at that boundary, and resuming the committed file
// as it stands must reach the uninterrupted Result, while its payload
// sealed as the previous format must be refused. A change that moves
// the bytes on purpose bumps checkpointVersion and regenerates the
// file with
//
//	go test -run '^TestParentCheckpointFixture$' ./internal/ctrl/loadgen -update
func TestParentCheckpointFixture(t *testing.T) {
	fixturePath := filepath.Join("testdata", "parent-campaign-event500.ckpt")
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
	if *update {
		if err := os.WriteFile(fixturePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if canon := canonicalCheckpoint(t, cfg, fixture); !bytes.Equal(got, canon) {
		t.Fatalf("checkpoint at event 500 differs from the committed one re-encoded (%d vs %d bytes)", len(got), len(canon))
	}

	want, err := RunCheckpointed(cfg, CheckpointOptions{})
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

	// The same payload sealed as the previous format is refused as
	// corrupt, naming both versions.
	_, payload, err := snapshot.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	prevPath := filepath.Join(dir, "previous.ckpt")
	if err := os.WriteFile(prevPath, snapshot.Seal(checkpointVersion-1, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Resume(cfg, CheckpointOptions{Path: prevPath})
	msg := fmt.Sprintf("checkpoint format v%d, this build reads v%d", checkpointVersion-1, checkpointVersion)
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) || !strings.Contains(err.Error(), msg) {
		t.Fatalf("previous-version resume: %v, want ErrCorruptSnapshot naming %q", err, msg)
	}
}

// TestResumeRejectsConfigChange pins the digest gate: a checkpoint
// taken under one campaign config must refuse to resume under another.
func TestResumeRejectsConfigChange(t *testing.T) {
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
		if _, err := Resume(bad, CheckpointOptions{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
			t.Errorf("%s change resumed anyway: %v", name, err)
		}
	}
}

// TestRunCheckpointedWriteFailure pins that a checkpoint the disk
// refuses fails the run: with the path under a regular file,
// RunCheckpointed returns the write's error and no Result, both when a
// later checkpoint collects the failed write and when the failed write
// is the run's last one, dispatched at the final event.
func TestRunCheckpointedWriteFailure(t *testing.T) {
	cfg := smallConfig(5)
	plain, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, every := range []uint64{128, plain.Events} {
		opts := CheckpointOptions{Path: filepath.Join(file, "dir", "c.ckpt"), EveryEvents: every}
		res, err := RunCheckpointed(cfg, opts)
		if res != nil || !errors.Is(err, syscall.ENOTDIR) {
			t.Fatalf("every %d, unwritable checkpoint: result %v, err %v; want no result and ENOTDIR", every, res, err)
		}
	}
}
