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
// 2 dropped the allocator's route-plan cache section.
const CheckpointVersion = 2

// configDigest encodes every Config field that shapes controller
// behavior. Restores compare digests byte-for-byte: a checkpoint is
// only continuable under the exact configuration that produced it.
func (s *Server) configDigest() []byte {
	var e snapshot.Encoder
	c := s.cfg
	e.U64(c.Seed)
	e.Int(c.Wafers)
	e.Int(c.WaferConfig.Rows)
	e.Int(c.WaferConfig.Cols)
	e.Int(c.WaferConfig.LasersPerTile)
	e.Int(c.WaferConfig.SerDesPortsPerTile)
	e.Int(c.WaferConfig.BusesPerLane)
	e.Int(c.WaferConfig.FibersPerEdge)
	e.Int(c.QueueCap)
	snapshot.Unit(&e, c.EstablishService)
	snapshot.Unit(&e, c.ReleaseService)
	snapshot.Unit(&e, c.RerouteService)
	e.Int(c.Breaker.FailThreshold)
	snapshot.Unit(&e, c.Breaker.Cooldown)
	e.Int(c.Breaker.HalfOpenProbes)
	e.Int(int(c.Audit))
	return e.Bytes()
}

// EncodeState appends the server's full mutable state.
func (s *Server) EncodeState(e *snapshot.Encoder) {
	e.String(string(s.configDigest()))
	s.alloc.EncodeState(e)
	s.aud.EncodeState(e)
	e.Len(len(s.breakers))
	for _, b := range s.breakers {
		b.EncodeState(e)
	}
	snapshot.Unit(e, s.now)
	snapshot.Unit(e, s.busyUntil)
	e.Len(len(s.pending))
	for _, t := range s.pending {
		snapshot.Unit(e, t)
	}
	st := s.stats
	e.Int(st.Arrivals)
	e.Int(st.Served)
	e.Int(st.Degraded)
	e.Int(st.Shed)
	e.Int(st.DeadlineMiss)
	e.Int(st.BreakerRejects)
	e.Int(st.NoPath)
	e.Int(st.EndpointFailed)
	e.Int(st.UnknownCircuit)
	e.Int(st.BadRequest)
	e.Int(st.FaultsApplied)
	e.Int(st.Reroutes)
	e.Int(st.RerouteDegraded)
	e.Int(st.RerouteFailed)
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
	for _, b := range s.breakers {
		if err := b.RestoreState(d); err != nil {
			return err
		}
	}
	s.now = snapshot.DecodeUnit[unit.Seconds](d)
	s.busyUntil = snapshot.DecodeUnit[unit.Seconds](d)
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
		Arrivals:        d.Int(),
		Served:          d.Int(),
		Degraded:        d.Int(),
		Shed:            d.Int(),
		DeadlineMiss:    d.Int(),
		BreakerRejects:  d.Int(),
		NoPath:          d.Int(),
		EndpointFailed:  d.Int(),
		UnknownCircuit:  d.Int(),
		BadRequest:      d.Int(),
		FaultsApplied:   d.Int(),
		Reroutes:        d.Int(),
		RerouteDegraded: d.Int(),
		RerouteFailed:   d.Int(),
		CircuitsLost:    d.Int(),
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
