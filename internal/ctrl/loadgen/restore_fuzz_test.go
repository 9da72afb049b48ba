package loadgen

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lightpath/internal/route"
	"lightpath/internal/snapshot"
)

// FuzzRestore throws mutated campaign payloads at restoreState, seeded
// with a live checkpoint at event 1000 of smallConfig(1234) and with
// the committed parent fixture. Every input must be refused, or
// restore to a state that passes a full audit and survives a release
// of every circuit and 8 establishes under the Paranoid auditor.
func FuzzRestore(f *testing.F) {
	cfg := smallConfig(1234)
	path := filepath.Join(f.TempDir(), "ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, StopAfterEvents: 1000}); !errors.Is(err, ErrStopped) {
		f.Fatalf("err = %v, want ErrStopped", err)
	}
	for _, file := range []string{path, filepath.Join("testdata", "parent-campaign-event500.ckpt")} {
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
		c, err := build(cfg, CheckpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d := snapshot.NewDecoder(payload)
		if err := c.restoreState(d); err != nil {
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) && !errors.Is(err, snapshot.ErrConfigMismatch) {
				t.Fatalf("restore error outside the snapshot taxonomy: %v", err)
			}
			return
		}
		if d.Finish() != nil {
			return
		}
		aud := c.srv.Auditor()
		if v := aud.Audit("restored"); len(v) > 0 {
			t.Fatalf("accepted state flagged: %v", v[0])
		}
		a := c.srv.Allocator()
		for _, circ := range a.Circuits() {
			a.Release(circ)
		}
		n := a.Rack().NumChips()
		for i := 0; i < 8; i++ {
			_, _ = a.Establish(route.Request{A: 3 * i, B: n - 1 - 5*i, Width: 2}, c.srv.Clock())
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("drive found violations: %v", err)
		}
	})
}
