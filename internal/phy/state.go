package phy

import "lightpath/internal/rng"

// This file exposes the physical layer's mutable state for
// checkpointing. The loss model's position in its stochastic stream is
// the only thing in phy a long-running simulation mutates; capturing
// it lets a resumed run continue the physics exactly where the killed
// one stopped.

// RandState returns the loss model's position in its stochastic
// stream. ok is false for a deterministic (nil-stream) model, which
// has no state to capture.
func (m *LossModel) RandState() (s [4]uint64, ok bool) {
	if m.rand == nil {
		return s, false
	}
	return m.rand.State(), true
}

// SetRandState repositions the loss model's stochastic stream. A
// nil-stream model gains a stream at the given position, so restoring
// into a freshly built model works regardless of how it was seeded.
func (m *LossModel) SetRandState(s [4]uint64) {
	if m.rand == nil {
		m.rand = rng.New(0)
	}
	m.rand.SetState(s)
}
