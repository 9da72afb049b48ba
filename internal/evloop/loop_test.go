package evloop

import (
	"errors"
	"path/filepath"
	"reflect"
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
