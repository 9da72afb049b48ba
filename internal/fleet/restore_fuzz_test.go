package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lightpath/internal/evloop"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
)

// FuzzRestore throws mutated soak payloads at restoreState, seeded
// with a live checkpoint at event 90 of crashCfg and with the
// committed parent fixture. Every input must be refused, or restore to
// a state that passes a full audit and survives a release of every
// circuit and 8 establishes, with a clean audit after them.
func FuzzRestore(f *testing.F) {
	cfg := crashCfg()
	path := filepath.Join(f.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: 90}); !errors.Is(err, evloop.ErrStopped) {
		f.Fatalf("err = %v, want evloop.ErrStopped", err)
	}
	for _, file := range []string{path, filepath.Join("testdata", "parent-soak-event55.ckpt")} {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		_, payload, err := snapshot.Open(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := buildSoak(cfg.withDefaults(), CheckpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d := snapshot.NewDecoder(payload)
		if err := s.restoreState(d); err != nil {
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) && !errors.Is(err, snapshot.ErrConfigMismatch) {
				t.Fatalf("restore error outside the snapshot taxonomy: %v", err)
			}
			return
		}
		if d.Finish() != nil {
			return
		}
		if v := s.aud.Audit("restored"); len(v) > 0 {
			t.Fatalf("accepted state flagged: %v", v[0])
		}
		for _, c := range s.alloc.Circuits() {
			s.alloc.Release(c)
		}
		n := s.rack.NumChips()
		for i := 0; i < 8; i++ {
			_, _ = s.alloc.Establish(route.Request{A: 3 * i, B: n - 1 - 5*i, Width: width}, s.nextSample)
		}
		if v := s.aud.Audit("driven"); len(v) > 0 {
			t.Fatalf("drive left a violation: %v", v[0])
		}
	})
}
