package evloop

import (
	"errors"
	"fmt"

	"lightpath/internal/snapshot"
)

// ErrStopped is returned by Tick at the StopAfterEvents boundary,
// after the final checkpoint is durable. The crash-injection harnesses
// use it to kill a run at a chosen event and resume it later.
var ErrStopped = errors.New("evloop: stopped at checkpoint boundary")

// Options configures periodic snapshotting of an event loop.
type Options struct {
	// Path is the checkpoint file; the writer keeps the previous good
	// snapshot beside it (Path + ".prev") for torn-write fallback.
	// Empty disables checkpointing.
	Path string
	// EveryEvents is the checkpoint cadence in event boundaries; zero
	// takes the simulator's default.
	EveryEvents uint64
	// StopAfterEvents, when positive, halts the loop with ErrStopped
	// once that many event boundaries have been processed, writing a
	// final checkpoint first if Path is set.
	StopAfterEvents uint64
}

// Loop counts a simulator's event boundaries and checkpoints at them.
// The counter is part of the simulator's state: it encodes Events in
// its checkpoint and hands the decoded value back through SetEvents.
//
// A checkpoint is encoded at its boundary and written to disk in the
// background while the simulation runs on, at most one write at a
// time. The loop owns two encoders and swaps them at each dispatch, so
// the next encode never touches bytes still being written. A write's
// error surfaces from the Tick that dispatches the next checkpoint or
// from Flush; a simulator calls Flush before it returns so that no
// write outlives the run and no error is dropped.
type Loop struct {
	opts    Options
	version uint32
	events  uint64
	enc     snapshot.Encoder // the next checkpoint's encoder
	writing snapshot.Encoder // the bytes of the write in flight, if any
	busy    bool             // a write is in flight; its error arrives on done
	done    chan error
}

// New returns a loop writing checkpoints of the given payload format
// version. defaultEvery is the cadence used when opts.EveryEvents is
// zero.
func New(opts Options, version uint32, defaultEvery uint64) *Loop {
	if opts.EveryEvents == 0 {
		opts.EveryEvents = defaultEvery
	}
	l := &Loop{opts: opts, version: version}
	if opts.Path != "" {
		l.done = make(chan error, 1)
	}
	return l
}

// Events returns the number of event boundaries processed so far.
func (l *Loop) Events() uint64 { return l.events }

// SetEvents restores the boundary counter from a checkpoint.
func (l *Loop) SetEvents(n uint64) { l.events = n }

// Tick marks one event boundary. When the boundary is on the cadence
// or is the stop, encode appends the simulator's full state to the
// loop's encoder there and then, and the write to disk starts in the
// background once the previous one has finished; that write's error is
// returned here. A failed write does not cost the next one: this
// boundary's write starts before the error returns. At the stop Tick
// waits for the final write and returns ErrStopped, so the stop
// checkpoint is on disk when it does.
func (l *Loop) Tick(encode func(*snapshot.Encoder)) error {
	l.events++
	stopping := l.opts.StopAfterEvents > 0 && l.events >= l.opts.StopAfterEvents
	if l.opts.Path != "" && (stopping || l.events%l.opts.EveryEvents == 0) {
		l.enc.Reset()
		encode(&l.enc)
		prev := l.Flush()
		l.enc, l.writing = l.writing, l.enc
		l.busy = true
		path, version, payload, at, done := l.opts.Path, l.version, l.writing.Bytes(), l.events, l.done
		go func() {
			if err := snapshot.Write(path, version, payload); err != nil {
				done <- fmt.Errorf("evloop: checkpoint at event %d: %w", at, err)
				return
			}
			done <- nil
		}()
		if prev != nil {
			return prev
		}
	}
	if stopping {
		if err := l.Flush(); err != nil {
			return err
		}
		return ErrStopped
	}
	return nil
}

// Flush waits for the checkpoint write in flight, if any, and returns
// its error.
func (l *Loop) Flush() error {
	if !l.busy {
		return nil
	}
	l.busy = false
	return <-l.done
}

// Open loads the checkpoint at path, falling back to its .prev
// rotation when the primary is torn, and returns a decoder over the
// payload. A payload format other than version is corruption.
func Open(path string, version uint32) (*snapshot.Decoder, error) {
	if path == "" {
		return nil, errors.New("evloop: resume needs a checkpoint path")
	}
	v, payload, _, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("%w: checkpoint format v%d, this build reads v%d",
			snapshot.ErrCorruptSnapshot, v, version)
	}
	return snapshot.NewDecoder(payload), nil
}
