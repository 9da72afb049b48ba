package evloop

import (
	"errors"
	"fmt"

	"lightpath/internal/snapshot"
)

// ErrStopped is returned by Tick at the StopAfterEvents boundary,
// after the final checkpoint is written. The crash-injection harnesses
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
type Loop struct {
	opts    Options
	version uint32
	events  uint64
	enc     snapshot.Encoder
}

// New returns a loop writing checkpoints of the given payload format
// version. defaultEvery is the cadence used when opts.EveryEvents is
// zero.
func New(opts Options, version uint32, defaultEvery uint64) *Loop {
	if opts.EveryEvents == 0 {
		opts.EveryEvents = defaultEvery
	}
	return &Loop{opts: opts, version: version}
}

// Events returns the number of event boundaries processed so far.
func (l *Loop) Events() uint64 { return l.events }

// SetEvents restores the boundary counter from a checkpoint.
func (l *Loop) SetEvents(n uint64) { l.events = n }

// Tick marks one event boundary. It writes a checkpoint — encode
// appends the simulator's full state to a reused encoder — when the
// boundary is on the cadence or is the stop, and returns ErrStopped at
// the stop.
func (l *Loop) Tick(encode func(*snapshot.Encoder)) error {
	l.events++
	stopping := l.opts.StopAfterEvents > 0 && l.events >= l.opts.StopAfterEvents
	if l.opts.Path != "" && (stopping || l.events%l.opts.EveryEvents == 0) {
		l.enc.Reset()
		encode(&l.enc)
		if err := snapshot.Write(l.opts.Path, l.version, l.enc.Bytes()); err != nil {
			return err
		}
	}
	if stopping {
		return ErrStopped
	}
	return nil
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
