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
	"lightpath/internal/invariant"
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
// break determinism: a change to any Config field is refused.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := crashCfg()
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: 10}); !errors.Is(err, evloop.ErrStopped) {
		t.Fatalf("err = %v, want evloop.ErrStopped", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed++ }},
		{"wafers", func(c *Config) { c.Wafers = 3 }},
		{"horizon", func(c *Config) { c.Horizon += unit.Hour }},
		{"sample cadence", func(c *Config) { c.SampleEvery = 20 * unit.Minute }},
		{"mtbf", func(c *Config) { c.Rates.MTBF[chaos.FiberCut] /= 2 }},
		{"waveguide loss bound", func(c *Config) { c.Rates.WaveguideLossDB = 1.5 }},
		{"jobs", func(c *Config) { c.Jobs = 10 }},
		{"audit", func(c *Config) { c.Audit = invariant.Paranoid }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := cfg
			tc.mutate(&other)
			if _, err := Resume(other, CheckpointOptions{Path: path}); !errors.Is(err, snapshot.ErrConfigMismatch) {
				t.Fatalf("err = %v, want ErrConfigMismatch", err)
			}
		})
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

// TestSoakAggregatesAreSeriesMeans pins the headline aggregates to
// the time series they summarize: Availability and MeanGoodput equal,
// bit for bit, the chronological means over Outcome.Samples, both for
// an uninterrupted soak and for one resumed from a mid-run kill.
func TestSoakAggregatesAreSeriesMeans(t *testing.T) {
	cfg := crashCfg()
	plain, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: plain.Events / 2}); !errors.Is(err, evloop.ErrStopped) {
		t.Fatalf("err = %v, want evloop.ErrStopped", err)
	}
	resumed, err := Resume(cfg, CheckpointOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*Outcome{"uninterrupted": plain, "resumed": resumed} {
		if len(out.Samples) != 36 {
			t.Fatalf("%s: %d samples, want 36", name, len(out.Samples))
		}
		var live, good float64
		for _, row := range out.Samples {
			live += float64(row.Up) / float64(cfg.withDefaults().Jobs)
			good += row.Goodput
		}
		n := float64(len(out.Samples))
		if out.Availability != live/n || out.MeanGoodput != good/n {
			t.Fatalf("%s: aggregates %v/%v, series means %v/%v",
				name, out.Availability, out.MeanGoodput, live/n, good/n)
		}
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
	cases := []struct {
		name   string
		mutate func(*testing.T, *soak)
	}{
		{"job endpoint out of range", func(_ *testing.T, s *soak) { s.jobs[0].a = 9999 }},
		{"negative job endpoint", func(_ *testing.T, s *soak) { s.jobs[0].b = -1 }},
		{"spare out of range", func(_ *testing.T, s *soak) { s.spares = append(s.spares, s.rack.NumChips()) }},
		{"spares not ascending", func(_ *testing.T, s *soak) { s.spares = append(s.spares, s.spares[0]) }},
		{"live circuit no job holds", func(t *testing.T, s *soak) {
			for _, j := range s.jobs {
				if j.circuit != nil {
					j.circuit = nil
					return
				}
			}
			t.Fatal("no job holds a circuit at this boundary")
		}},
		{"queued fault at cursor", func(_ *testing.T, s *soak) { s.pending = append(s.pending, s.out.Faults) }},
		{"repair of fault past cursor", func(_ *testing.T, s *soak) { s.repairs.Push(s.cfg.Horizon, s.out.Faults+1) }},
		{"more repairs than crews", func(_ *testing.T, s *soak) {
			for s.repairs.Len() <= crews {
				s.repairs.Push(s.cfg.Horizon, 0)
			}
		}},
		// The circuit table disagrees with the rack beside it: the
		// restore's full audit refuses both.
		{"segment on a bus its circuit does not hold", func(_ *testing.T, s *soak) {
			seg := &s.alloc.Circuits()[0].Segments[0]
			seg.Ref.Bus = s.rack.Config().BusesPerLane - 1
		}},
		{"fiber pointed at a free fiber", func(t *testing.T, s *soak) {
			for _, c := range s.alloc.Circuits() {
				if len(c.Fibers) == 0 {
					continue
				}
				f := &c.Fibers[0]
				for f.Fiber = 0; s.rack.FiberAllocated(*f); f.Fiber++ {
				}
				return
			}
			t.Fatal("no circuit crosses a trunk at this boundary")
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
