package ctrl

import (
	"fmt"

	"lightpath/internal/evloop"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the controller's crash-tolerance layer. A server's full
// mutable state — allocator, auditor, per-region breakers, virtual
// clock, backlog and counters — serializes through the snapshot codec
// at request boundaries, so a controller killed at any boundary and
// restored from its last checkpoint continues bit-for-bit identically.
// The load generator embeds this state inside its own campaign
// checkpoint; the daemon writes it to a standalone file.

// CheckpointVersion is the daemon checkpoint payload format. Version
// 2 dropped the allocator's route-plan cache section. Version 3 moved
// the cut fiber rows from the allocator's section into the rack's and
// dropped the allocator's per-row fiber counts. Version 4 drops the
// busy-until time, which is the backlog's last completion time.
// Version 5 drops each switch's program time and MZI phase state from
// the rack section and each circuit's ready time, which its
// establishment time implies, from the allocator's. Version 6 drops
// the failed-reroute count, which the lost-circuit count already
// holds, and its config digest covers every wafer.Config field.
// Version 7 drops each circuit's stored BER from the allocator's
// section; the received power it derives from is still there.
// Version 8's config digest drops the release and reroute service
// times and the breaker tuning, which are constants now. Version 9
// drops each breaker's half-open probe count, the breaker having no
// half-open state, and the degraded establish and reroute counters,
// the controller no longer halving a width.
const CheckpointVersion = 9

// configDigest encodes every Config field, each of which shapes
// controller behavior. Restores compare digests byte-for-byte: a
// checkpoint is only continuable under the exact configuration that
// produced it.
func (s *Server) configDigest() []byte { return snapshot.Digest(s.cfg) }

// EncodeState appends the server's full mutable state.
func (s *Server) EncodeState(e *snapshot.Encoder) {
	e.String(string(s.configDigest()))
	s.alloc.EncodeState(e)
	s.aud.EncodeState(e)
	e.Len(len(s.breakers))
	for i := range s.breakers {
		s.breakers[i].EncodeState(e)
	}
	snapshot.Unit(e, s.now)
	e.Len(len(s.pending))
	for _, t := range s.pending {
		snapshot.Unit(e, t)
	}
	st := s.stats
	e.Int(st.Arrivals)
	e.Int(st.Served)
	e.Int(st.Shed)
	e.Int(st.DeadlineMiss)
	e.Int(st.BreakerRejects)
	e.Int(st.NoPath)
	e.Int(st.EndpointFailed)
	e.Int(st.UnknownCircuit)
	e.Int(st.BadRequest)
	e.Int(st.FaultsApplied)
	e.Int(st.Reroutes)
	e.Int(st.CircuitsLost)
}

// RestoreState replays state captured by EncodeState into a freshly
// built server with the same Config. A digest mismatch returns
// snapshot.ErrConfigMismatch; structural corruption wraps
// ErrCorruptSnapshot.
func (s *Server) RestoreState(d *snapshot.Decoder) error {
	if err := d.CheckDigest(s.configDigest()); err != nil {
		return err
	}
	if err := s.alloc.RestoreState(d); err != nil {
		return err
	}
	if err := s.aud.RestoreState(d); err != nil {
		return err
	}
	if n := d.Len(); d.Err() == nil && n != len(s.breakers) {
		return fmt.Errorf("%w: checkpoint has %d breakers, config says %d",
			snapshot.ErrCorruptSnapshot, n, len(s.breakers))
	}
	// By index: a range variable would be a copy, and the restore
	// would land in it.
	for i := range s.breakers {
		if err := s.breakers[i].RestoreState(d); err != nil {
			return err
		}
	}
	s.now = snapshot.DecodeUnit[unit.Seconds](d)
	// No cap check on the backlog length: releases are exempt from
	// queue-full shedding, so a live server's backlog legitimately
	// exceeds QueueCap whenever teardowns arrive at a full queue.
	// Len() is already bounded by the decoder's remaining bytes, and
	// the monotonicity check below catches structural damage.
	n := d.Len()
	s.pending = s.pending[:0]
	prev := unit.Seconds(0)
	for i := 0; i < n; i++ {
		t := snapshot.DecodeUnit[unit.Seconds](d)
		if d.Err() == nil && t < prev {
			return fmt.Errorf("%w: backlog completion times out of order", snapshot.ErrCorruptSnapshot)
		}
		prev = t
		s.pending = append(s.pending, t)
	}
	s.stats = Stats{
		Arrivals:       d.Int(),
		Served:         d.Int(),
		Shed:           d.Int(),
		DeadlineMiss:   d.Int(),
		BreakerRejects: d.Int(),
		NoPath:         d.Int(),
		EndpointFailed: d.Int(),
		UnknownCircuit: d.Int(),
		BadRequest:     d.Int(),
		FaultsApplied:  d.Int(),
		Reroutes:       d.Int(),
		CircuitsLost:   d.Int(),
	}
	return d.Err()
}

// SaveCheckpoint atomically writes the server's state to path, keeping
// the previous good snapshot beside it for torn-write fallback.
func (s *Server) SaveCheckpoint(path string) error {
	var e snapshot.Encoder
	s.EncodeState(&e)
	return snapshot.Write(path, CheckpointVersion, e.Bytes())
}

// LoadCheckpoint builds a server from cfg and restores the checkpoint
// at path into it. A corrupted or torn primary snapshot falls back to
// the previous good one (snapshot.Load's contract), and a payload the
// restore does not consume exactly is ErrCorruptSnapshot.
func LoadCheckpoint(cfg Config, path string) (*Server, error) {
	d, err := evloop.Open(path, CheckpointVersion)
	if err != nil {
		return nil, err
	}
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.RestoreState(d); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
