package evloop

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"lightpath/internal/snapshot"
)

// TestLoopCadenceAndStop pins Tick's contract: a checkpoint on every
// EveryEvents-th boundary and at the stop, ErrStopped exactly at the
// stop, and the last file holding the state encoded there.
func TestLoopCadenceAndStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.ckpt")
	l := New(Options{Path: path, EveryEvents: 3, StopAfterEvents: 7}, 5, 1024)
	var wrote []uint64
	encode := func(e *snapshot.Encoder) {
		wrote = append(wrote, l.Events())
		e.U64(l.Events())
	}
	for i := 1; i <= 7; i++ {
		err := l.Tick(encode)
		if i < 7 && err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if i == 7 && !errors.Is(err, ErrStopped) {
			t.Fatalf("tick 7: %v, want ErrStopped", err)
		}
	}
	if want := []uint64{3, 6, 7}; !reflect.DeepEqual(wrote, want) {
		t.Fatalf("checkpoints at %v, want %v", wrote, want)
	}
	d, err := Open(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U64(); got != 7 || d.Finish() != nil {
		t.Fatalf("checkpoint holds event %d (%v), want 7", got, d.Err())
	}
	if _, err := Open(path, 6); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("wrong format version: %v, want ErrCorruptSnapshot", err)
	}
}

// unwritablePath returns a checkpoint path inside a directory whose
// parent is a regular file, so every write to it fails.
func unwritablePath(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(file, "dir", "loop.ckpt")
}

// TestLoopWriteErrorNotDropped pins the background write's error
// path: a failed write is returned by the next cadence Tick, by Flush,
// or by the stop Tick in place of ErrStopped, and never lost. The Tick
// that returns a failure still starts its own boundary's write.
func TestLoopWriteErrorNotDropped(t *testing.T) {
	path := unwritablePath(t)
	encode := func(e *snapshot.Encoder) { e.U64(1) }

	l := New(Options{Path: path, EveryEvents: 2}, 1, 1024)
	for i := 1; i <= 3; i++ {
		if err := l.Tick(encode); err != nil {
			t.Fatalf("tick %d: %v before the next checkpoint boundary", i, err)
		}
	}
	if err := l.Tick(encode); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("next cadence tick: %v, want the first write's ENOTDIR", err)
	}
	if err := l.Flush(); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Flush after the failed tick: %v, want its own write's ENOTDIR (the tick must still write)", err)
	}

	l = New(Options{Path: path, EveryEvents: 1}, 1, 1024)
	if err := l.Tick(encode); err != nil {
		t.Fatalf("dispatching tick: %v", err)
	}
	if err := l.Flush(); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Flush: %v, want the write's ENOTDIR", err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("second Flush with nothing in flight: %v", err)
	}

	l = New(Options{Path: path, EveryEvents: 8, StopAfterEvents: 1}, 1, 1024)
	if err := l.Tick(encode); !errors.Is(err, syscall.ENOTDIR) || errors.Is(err, ErrStopped) {
		t.Fatalf("stop tick: %v, want the stop write's ENOTDIR", err)
	}
}

// TestLoopEncodersNeverAlias checkpoints at every boundary, each one a
// distinct multi-KB payload, so an encode into bytes still being
// written would tear a file (or trip the race detector). Once Flush
// returns, the file holds exactly the last boundary's payload, its
// rotation the one before, and no temporary file is left.
func TestLoopEncodersNeverAlias(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alias.ckpt")
	l := New(Options{Path: path, EveryEvents: 1}, 3, 1024)
	body := func(k uint64) []byte {
		return bytes.Repeat([]byte{byte(k), byte(k >> 8)}, 1024+256*int(k%5))
	}
	encode := func(e *snapshot.Encoder) {
		k := l.Events()
		e.U64(k)
		e.String(string(body(k)))
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.Tick(encode); err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path string
		k    uint64
	}{{path, n}, {snapshot.PrevPath(path), n - 1}} {
		v, payload, err := snapshot.Read(f.path)
		if err != nil || v != 3 {
			t.Fatalf("%s: version %d, %v", f.path, v, err)
		}
		d := snapshot.NewDecoder(payload)
		if k, b := d.U64(), d.StringBytes(); k != f.k || !bytes.Equal(b, body(f.k)) || d.Finish() != nil {
			t.Fatalf("%s holds boundary %d (%d bytes, %v), want boundary %d", f.path, k, len(b), d.Err(), f.k)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// TestLoopDefaultsAndNoPath checks the caller's default cadence and
// that a loop without a path never encodes but still stops.
func TestLoopDefaultsAndNoPath(t *testing.T) {
	if l := New(Options{}, 1, 4096); l.opts.EveryEvents != 4096 {
		t.Fatalf("default cadence %d, want 4096", l.opts.EveryEvents)
	}
	l := New(Options{EveryEvents: 1, StopAfterEvents: 2}, 1, 4096)
	encode := func(*snapshot.Encoder) { t.Fatal("encoded without a checkpoint path") }
	if err := l.Tick(encode); err != nil {
		t.Fatal(err)
	}
	if err := l.Tick(encode); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	l.SetEvents(40)
	if l.Events() != 40 {
		t.Fatalf("SetEvents(40) left %d", l.Events())
	}
}

// TestOpenErrors pins the failure classes: no path, and a file that
// was never written (not corruption).
func TestOpenErrors(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Fatal("empty path accepted")
	}
	_, err := Open(filepath.Join(t.TempDir(), "missing"), 1)
	if err == nil || errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("missing file: %v, want a not-exist error", err)
	}
}
