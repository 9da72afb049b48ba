package experiments

import (
	"errors"
	"fmt"
	"path/filepath"

	"lightpath/internal/engine"
	"lightpath/internal/evloop"
)

// Checkpointing extends a long-running campaign (the fleet soak, the
// controller load campaign) with crash-tolerant per-trial checkpoints,
// driven by lightpath-sim's -checkpoint / -resume / -ckpt-interval /
// -kill-at flags and the resume smoke tests.
type Checkpointing struct {
	// Dir, when non-empty, holds one checkpoint file per trial
	// (<campaign>-trial-<i>.ckpt plus its rotated .prev).
	Dir string
	// EveryEvents is the per-trial checkpoint cadence in event
	// boundaries (the simulator's default when zero).
	EveryEvents uint64
	// KillAfterEvents, when positive, halts every trial at that event
	// boundary after writing a final checkpoint; the campaign then
	// returns an error wrapping evloop.ErrStopped. It simulates a
	// mid-campaign crash for the resume smoke tests.
	KillAfterEvents uint64
	// Resume continues each trial from its checkpoint file instead of
	// starting fresh. The resumed campaign is byte-identical to an
	// uninterrupted one.
	Resume bool
}

// checkpointedTrials fans `trials` checkpointed simulator runs across
// CPUs: trial i runs config(i) fresh through run, or through resume
// when ck.Resume is set, checkpointing to <file>-trial-<i>.ckpt under
// ck.Dir. In kill mode every trial must still run and leave its
// checkpoint behind, so an injected stop is the expected per-trial
// outcome; the campaign as a whole then reports that it halted.
func checkpointedTrials[C, R any](ck Checkpointing, name, file string, trials int,
	config func(int) C, run, resume func(C, evloop.Options) (R, error)) ([]R, error) {
	step := run
	if ck.Resume {
		step = resume
	}
	out, err := engine.Map(trials, func(i int) (R, error) {
		opts := evloop.Options{EveryEvents: ck.EveryEvents, StopAfterEvents: ck.KillAfterEvents}
		if ck.Dir != "" {
			opts.Path = filepath.Join(ck.Dir, fmt.Sprintf("%s-trial-%d.ckpt", file, i))
		}
		r, err := step(config(i), opts)
		if err != nil && !(ck.KillAfterEvents > 0 && errors.Is(err, evloop.ErrStopped)) {
			return r, fmt.Errorf("experiments: %s trial %d: %w", name, i, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	if ck.KillAfterEvents > 0 {
		return nil, fmt.Errorf("experiments: %s trials halted at event %d: %w",
			name, ck.KillAfterEvents, evloop.ErrStopped)
	}
	return out, nil
}
