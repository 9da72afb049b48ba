package fleet

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
	"lightpath/internal/evloop"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// update makes TestParentCheckpointFixture rewrite its fixture from
// this build instead of checking it.
var update = flag.Bool("update", false, "rewrite testdata/parent-soak-event55.ckpt from this build")

// crashCfg is a small but busy soak: a short horizon with dense
// faults, so the sweep over kill points stays fast while still
// exercising reroutes, splices, sheds, repairs and sampling.
func crashCfg() Config {
	cfg := Config{Seed: 99, Horizon: 6 * unit.Hour, SampleEvery: 10 * unit.Minute}
	for c := 0; c < chaos.NumClasses; c++ {
		cfg.Rates.MTBF[c] = cfg.Horizon / 12
	}
	return cfg
}

// TestResumeByteIdenticalAtEveryBoundary is the crash-injection
// harness: kill the soak at every Nth event boundary, resume from the
// checkpoint, and demand an Outcome deep-equal — float bits and all —
// to the uninterrupted run.
func TestResumeByteIdenticalAtEveryBoundary(t *testing.T) {
	cfg := crashCfg()
	want, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Events < 20 {
		t.Fatalf("only %d events; config too quiet to exercise kill points", want.Events)
	}
	dir := t.TempDir()
	const stride = 7 // sweep a co-prime stride so every event class gets hit
	for kill := uint64(1); kill <= want.Events; kill += stride {
		path := filepath.Join(dir, "ckpt")
		_, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: kill})
		if !errors.Is(err, evloop.ErrStopped) {
			t.Fatalf("kill at %d: err = %v, want evloop.ErrStopped", kill, err)
		}
		got, err := Resume(cfg, CheckpointOptions{Path: path})
		if err != nil {
			t.Fatalf("resume from event %d: %v", kill, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume from event %d diverges:\ngot  %+v\nwant %+v", kill, got, want)
		}
		os.Remove(path)
		os.Remove(snapshot.PrevPath(path))
	}
}

// TestRunCheckpointedWriteFailure pins that a checkpoint the disk
// refuses fails the soak: with the path under a regular file,
// RunCheckpointed returns the write's error and no Outcome, both when a
// later checkpoint collects the failed write and when the failed write
// is the soak's last one, dispatched at the final event.
func TestRunCheckpointedWriteFailure(t *testing.T) {
	cfg := crashCfg()
	plain, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, every := range []uint64{4, plain.Events} {
		opts := CheckpointOptions{Path: filepath.Join(file, "dir", "ckpt"), EveryEvents: every}
		out, err := RunCheckpointed(cfg, opts)
		if out != nil || !errors.Is(err, syscall.ENOTDIR) {
			t.Fatalf("every %d, unwritable checkpoint: outcome %v, err %v; want no outcome and ENOTDIR", every, out, err)
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
	s := restoredSoak(t, cfg, payload)
	var e snapshot.Encoder
	s.encodeState(&e)
	return snapshot.Seal(version, e.Bytes())
}

// restoredSoak rebuilds the soak a checkpoint payload describes.
func restoredSoak(t *testing.T, cfg Config, payload []byte) *soak {
	t.Helper()
	s, err := buildSoak(cfg.withDefaults(), CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDecoder(payload)
	if err := s.restoreState(d); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParentCheckpointFixture holds the checkpoint format still: the
// committed file is the soak's checkpoint at event 55 of crashCfg in
// the format checkpointVersion names. Today's soak must write the
// bytes that file re-encodes to at that boundary, and resuming the
// committed file as it stands must reach the uninterrupted Outcome,
// while its payload sealed as the previous format must be refused. A
// change that moves the bytes on purpose bumps checkpointVersion and
// regenerates the file with
//
//	go test -run '^TestParentCheckpointFixture$' ./internal/fleet -update
func TestParentCheckpointFixture(t *testing.T) {
	fixturePath := filepath.Join("testdata", "parent-soak-event55.ckpt")
	cfg := crashCfg()
	dir := t.TempDir()
	path := filepath.Join(dir, "now.ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: 55}); !errors.Is(err, evloop.ErrStopped) {
		t.Fatalf("err = %v, want evloop.ErrStopped", err)
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
		t.Fatalf("checkpoint at event 55 differs from the committed one re-encoded (%d vs %d bytes)", len(got), len(canon))
	}

	want, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resumePath := filepath.Join(dir, "parent.ckpt")
	if err := os.WriteFile(resumePath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Resume(cfg, CheckpointOptions{Path: resumePath})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("resumed committed checkpoint diverges:\ngot  %+v\nwant %+v", out, want)
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

// TestResumeFallsBackOnTornSnapshot simulates a crash mid-write: the
// primary checkpoint is torn (truncated / bit-flipped), and Resume
// must fall back to the previous good snapshot and still replay to
// the identical Outcome.
func TestResumeFallsBackOnTornSnapshot(t *testing.T) {
	cfg := crashCfg()
	want, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	// Checkpoint every 5 events and stop mid-run, so both the primary
	// and the rotated .prev exist and differ.
	kill := want.Events / 2
	_, err = RunCheckpointed(cfg, CheckpointOptions{Path: path, EveryEvents: 5, StopAfterEvents: kill})
	if !errors.Is(err, evloop.ErrStopped) {
		t.Fatalf("err = %v, want evloop.ErrStopped", err)
	}
	prev, err := os.ReadFile(snapshot.PrevPath(path))
	if err != nil {
		t.Fatalf("no previous snapshot was rotated aside: %v", err)
	}
	if len(prev) == 0 {
		t.Fatal("previous snapshot is empty")
	}

	tear := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Resume(cfg, CheckpointOptions{Path: path})
		if err != nil {
			t.Fatalf("%s: resume did not fall back: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fallback resume diverges", name)
		}
		// Restore the primary for the next tear.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tear("truncated", func(b []byte) []byte { return b[:len(b)/3] })
	tear("bit-flip", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x40
		return c
	})
	tear("empty", func(b []byte) []byte { return nil })

	// Both snapshots corrupt: resume must fail with the typed error,
	// never a panic or a silently wrong outcome.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot.PrevPath(path), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, CheckpointOptions{Path: path}); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("both-corrupt resume err = %v, want ErrCorruptSnapshot", err)
	}
}

// TestResumeRejectsConfigMismatch guards against continuing a
// checkpoint under a different configuration, which would silently
// break determinism.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := crashCfg()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: 10}); !errors.Is(err, evloop.ErrStopped) {
		t.Fatalf("err = %v, want evloop.ErrStopped", err)
	}
	other := cfg
	other.Seed++
	if _, err := Resume(other, CheckpointOptions{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("err = %v, want ErrConfigMismatch", err)
	}
}

// TestResumeMissingCheckpoint pins the error for a path that was
// never written: not-exists, not corruption.
func TestResumeMissingCheckpoint(t *testing.T) {
	cfg := crashCfg()
	_, err := Resume(cfg, CheckpointOptions{Path: filepath.Join(t.TempDir(), "nope")})
	if err == nil || errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want a missing-file error", err)
	}
	if _, err := Resume(cfg, CheckpointOptions{}); err == nil {
		t.Fatal("resume without a path must fail")
	}
}

// TestStreamingMatchesExactAggregates runs the same soak in both
// sample modes: the headline aggregates must agree to the bit, the
// streaming series must be a bounded subset, and short soaks must
// retain the exact series even in streaming mode.
func TestStreamingMatchesExactAggregates(t *testing.T) {
	cfg := crashCfg()
	cfg.SampleEvery = 10 * unit.Second
	cfg.ReservoirCap = 64

	exact := cfg
	exact.SampleMode = SampleExact
	eo, err := RunCheckpointed(exact, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	so, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eo.Availability != so.Availability || eo.MeanGoodput != so.MeanGoodput {
		t.Fatalf("aggregates diverge across modes: %v/%v vs %v/%v",
			eo.Availability, eo.MeanGoodput, so.Availability, so.MeanGoodput)
	}
	if eo.SamplesSeen != so.SamplesSeen || len(eo.Samples) != eo.SamplesSeen {
		t.Fatalf("exact mode dropped rows: %d retained of %d", len(eo.Samples), eo.SamplesSeen)
	}
	if len(so.Samples) != cfg.ReservoirCap {
		t.Fatalf("streaming mode holds %d rows, want the %d-row reservoir", len(so.Samples), cfg.ReservoirCap)
	}
	// Every retained streaming row is a verbatim exact row.
	byTime := make(map[unit.Seconds]Sample, len(eo.Samples))
	for _, row := range eo.Samples {
		byTime[row.T] = row
	}
	last := unit.Seconds(-1)
	for _, row := range so.Samples {
		if row.T <= last {
			t.Fatalf("streaming series not time-sorted at %v", row.T)
		}
		last = row.T
		if byTime[row.T] != row {
			t.Fatalf("streaming row at %v is not the exact row", row.T)
		}
	}

	// Short soaks: streaming retains everything, so the default mode
	// change cannot perturb existing consumers.
	short := Config{Seed: 5}
	a, err := RunCheckpointed(short, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shortExact := short
	shortExact.SampleMode = SampleExact
	b, err := RunCheckpointed(shortExact, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("short-soak streaming series differs from exact")
	}
}

// TestResumeRejectsUnreachableState re-encodes a real checkpoint after
// planting a state the soak can never reach, seals it CRC-valid, and
// requires Resume to refuse it as corrupt instead of panicking or
// running on.
func TestResumeRejectsUnreachableState(t *testing.T) {
	cfg := crashCfg()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: 55}); !errors.Is(err, evloop.ErrStopped) {
		t.Fatalf("err = %v, want evloop.ErrStopped", err)
	}
	_, payload, err := snapshot.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	// jobWhere returns the first job ok accepts.
	jobWhere := func(t *testing.T, s *soak, ok func(*job) bool) *job {
		t.Helper()
		for _, j := range s.jobs {
			if ok(j) {
				return j
			}
		}
		t.Fatal("no job in the wanted state at this boundary")
		return nil
	}
	cases := []struct {
		name   string
		mutate func(*testing.T, *soak)
	}{
		{"job endpoint out of range", func(_ *testing.T, s *soak) { s.jobs[0].a = 9999 }},
		{"negative job endpoint", func(_ *testing.T, s *soak) { s.jobs[0].b = -1 }},
		{"spare out of range", func(_ *testing.T, s *soak) { s.spares = append(s.spares, s.rack.NumChips()) }},
		{"spares not ascending", func(_ *testing.T, s *soak) { s.spares = append(s.spares, s.spares[0]) }},
		{"up job without circuit", func(t *testing.T, s *soak) {
			jobWhere(t, s, func(j *job) bool { return j.state == jobUp }).circuit = nil
		}},
		{"degraded job without circuit", func(t *testing.T, s *soak) {
			j := jobWhere(t, s, func(j *job) bool { return j.state == jobUp })
			j.state, j.circuit = jobDegraded, nil
		}},
		{"shed job with circuit", func(t *testing.T, s *soak) {
			jobWhere(t, s, func(j *job) bool { return j.circuit != nil }).state = jobShed
		}},
		{"queued fault at cursor", func(_ *testing.T, s *soak) { s.pending = append(s.pending, s.out.Faults) }},
		{"repair of fault past cursor", func(_ *testing.T, s *soak) { s.repairs.Push(s.cfg.Horizon, s.out.Faults+1) }},
		{"more repairs than crews", func(_ *testing.T, s *soak) {
			for s.repairs.Len() <= s.cfg.Crews {
				s.repairs.Push(s.cfg.Horizon, 0)
			}
		}},
	}
	// resume seals the soak mutate leaves behind and resumes it.
	resume := func(t *testing.T, mutate func(*testing.T, *soak)) error {
		t.Helper()
		s := restoredSoak(t, cfg, payload)
		mutate(t, s)
		var e snapshot.Encoder
		s.encodeState(&e)
		p := filepath.Join(t.TempDir(), "ckpt")
		if err := snapshot.Write(p, checkpointVersion, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		_, err := Resume(cfg, CheckpointOptions{Path: p})
		return err
	}
	if err := resume(t, func(*testing.T, *soak) {}); err != nil {
		t.Fatalf("unmutated re-encoded checkpoint does not resume: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := resume(t, tc.mutate); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("resume err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}
