package loadgen

import (
	"fmt"
	"sort"

	"lightpath/internal/evloop"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the campaign's crash-tolerance layer. A checkpoint is
// one snapshot-envelope file capturing the controller's full state
// (allocator, auditor, breakers, clock, backlog, counters), every
// agent's rng position and arrival cursor, the open sessions, the
// event queue in its raw array layout, and the accumulated statistics.
// Checkpoints land only on event boundaries and the chaos schedule is
// recomputed from the config on resume, so a campaign killed at any
// boundary resumes to a Result byte-identical to the uninterrupted
// run — the property the kill-sweep test asserts.

// checkpointVersion is the current campaign checkpoint format.
// Version 2 dropped the allocator's route-plan cache section. Version 3
// moved the cut fiber rows from the allocator's section into the
// rack's and dropped the allocator's per-row fiber counts. Version 4
// drops the request and attempt counts, which the next session ID and
// the server's arrival count already hold, and carries the server's
// version 4 state.
const checkpointVersion = 4

// checkpointEvery is the default checkpoint cadence in event
// boundaries.
const checkpointEvery = 4096

// CheckpointOptions configures periodic snapshotting of a campaign.
type CheckpointOptions = evloop.Options

// ErrStopped is returned by RunCheckpointed when the campaign halted
// at the StopAfterEvents boundary instead of draining.
var ErrStopped = evloop.ErrStopped

// RunCheckpointed executes the campaign to completion. The returned
// error is non-nil when a fault cannot be applied or the invariant
// auditor found violations — robust serving on corrupted state must
// not look like robust serving on correct state. With opts set it
// writes a checkpoint every opts.EveryEvents event boundaries, and
// StopAfterEvents halts it with evloop.ErrStopped. Writes overlap
// the campaign, but all have finished when RunCheckpointed returns,
// and a failed one fails the run.
func RunCheckpointed(cfg Config, opts CheckpointOptions) (*Result, error) {
	c, err := build(cfg, opts)
	if err != nil {
		return nil, err
	}
	return c.run()
}

// Resume continues a campaign from the checkpoint at opts.Path,
// written by an earlier RunCheckpointed with the same Config. A
// corrupted or torn primary snapshot falls back to the previous good
// one; because the campaign is deterministic, resuming from an older
// boundary replays to the identical Result.
func Resume(cfg Config, opts CheckpointOptions) (*Result, error) {
	d, err := evloop.Open(opts.Path, checkpointVersion)
	if err != nil {
		return nil, err
	}
	c, err := build(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := c.restoreState(d); err != nil {
		return nil, err
	}
	return c.run()
}

// configDigest encodes every campaign field that shapes the event
// stream (the controller's own config digest travels inside its
// nested state). Resume compares byte-for-byte. build computes it once
// into c.digest.
func (c *campaign) configDigest() []byte {
	var e snapshot.Encoder
	cfg := c.cfg
	e.U64(cfg.Seed)
	e.Int(cfg.Agents)
	e.Int(cfg.ArrivalsPerAgent)
	snapshot.Unit(&e, cfg.MeanInterarrival)
	snapshot.Unit(&e, cfg.MeanHold)
	e.Int(cfg.Width)
	snapshot.Unit(&e, cfg.Deadline)
	snapshot.Unit(&e, cfg.Backoff.Base)
	e.F64(cfg.Backoff.Factor)
	snapshot.Unit(&e, cfg.Backoff.Cap)
	e.F64(cfg.Backoff.Jitter)
	e.Int(cfg.Backoff.MaxRetries)
	for _, m := range cfg.Rates.MTBF {
		snapshot.Unit(&e, m)
	}
	e.F64(cfg.Rates.WaveguideLossDB)
	return e.Bytes()
}

// encodeState serializes the full campaign at an event boundary.
func (c *campaign) encodeState(e *snapshot.Encoder) {
	e.String(c.digest)
	c.srv.EncodeState(e)

	e.Len(len(c.agents))
	for _, ag := range c.agents {
		for _, w := range ag.r.State() {
			e.U64(w)
		}
		e.Int(ag.issued)
	}

	e.Len(len(c.sessions))
	ids := c.ids[:0]
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	c.ids = ids
	for _, id := range ids {
		s := c.sessions[id]
		e.Int(id)
		e.Int(s.agent)
		e.Int(s.a)
		e.Int(s.b)
		e.Int(s.width)
		e.Int(int(s.phase))
		snapshot.Unit(e, s.firstAt)
		e.Int(s.circuit)
		e.Int(s.grantWidth)
		snapshot.Unit(e, s.openedAt)
	}

	c.events.EncodeState(e, encodeEvent)
	e.U64(c.loop.Events())
	e.Int(c.nextSession)

	c.quant.EncodeState(e)
	e.Int(c.retries)
	e.Int(c.lost)
	e.Int(c.leaked)
	e.F64(c.goodputWS)
}

func encodeEvent(e *snapshot.Encoder, ev event) {
	e.Int(int(ev.kind))
	e.Int(ev.agent)
	e.Int(ev.session)
	e.Int(ev.attempt)
	e.Int(ev.fault)
}

// decodeEvent reads one queued event, rejecting unknown kinds and
// fault indexes outside the recomputed schedule.
func (c *campaign) decodeEvent(d *snapshot.Decoder) (event, error) {
	ev := event{
		kind:    evKind(d.Int()),
		agent:   d.Int(),
		session: d.Int(),
		attempt: d.Int(),
		fault:   d.Int(),
	}
	if ev.kind < evArrival || ev.kind > evFault {
		return ev, fmt.Errorf("%w: event of unknown kind %d", snapshot.ErrCorruptSnapshot, int(ev.kind))
	}
	if ev.kind == evFault && (ev.fault < 0 || ev.fault >= len(c.schedule)) {
		return ev, fmt.Errorf("%w: fault event %d outside schedule of %d",
			snapshot.ErrCorruptSnapshot, ev.fault, len(c.schedule))
	}
	return ev, nil
}

// restoreState replays a checkpoint payload into a freshly built
// campaign skeleton.
func (c *campaign) restoreState(d *snapshot.Decoder) error {
	if err := d.CheckDigest([]byte(c.digest)); err != nil {
		return err
	}
	if err := c.srv.RestoreState(d); err != nil {
		return err
	}

	if n := d.Len(); d.Err() == nil && n != len(c.agents) {
		return fmt.Errorf("%w: checkpoint has %d agents, config says %d",
			snapshot.ErrCorruptSnapshot, n, len(c.agents))
	}
	for _, ag := range c.agents {
		var st [4]uint64
		for i := range st {
			st[i] = d.U64()
		}
		ag.r.SetState(st)
		ag.issued = d.Int()
		if d.Err() == nil && (ag.issued < 0 || ag.issued > c.cfg.ArrivalsPerAgent) {
			return fmt.Errorf("%w: agent issued %d of %d arrivals",
				snapshot.ErrCorruptSnapshot, ag.issued, c.cfg.ArrivalsPerAgent)
		}
	}

	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.Int()
		s := &session{
			agent: d.Int(),
			a:     d.Int(),
			b:     d.Int(),
			width: d.Int(),
		}
		ph := d.Int()
		if ph < int(phaseEstablish) || ph > int(phaseRelease) {
			return fmt.Errorf("%w: session %d in unknown phase %d", snapshot.ErrCorruptSnapshot, id, ph)
		}
		s.phase = phase(ph)
		s.firstAt = snapshot.DecodeUnit[unit.Seconds](d)
		s.circuit = d.Int()
		s.grantWidth = d.Int()
		s.openedAt = snapshot.DecodeUnit[unit.Seconds](d)
		if s.agent < 0 || s.agent >= len(c.agents) {
			return fmt.Errorf("%w: session %d owned by unknown agent %d",
				snapshot.ErrCorruptSnapshot, id, s.agent)
		}
		if _, dup := c.sessions[id]; dup {
			return fmt.Errorf("%w: duplicate session %d", snapshot.ErrCorruptSnapshot, id)
		}
		c.sessions[id] = s
		if s.phase != phaseEstablish && s.circuit >= 0 {
			if _, ok := c.srv.Allocator().CircuitByID(s.circuit); !ok {
				return fmt.Errorf("%w: session %d references unknown circuit %d",
					snapshot.ErrCorruptSnapshot, id, s.circuit)
			}
			if _, dup := c.byCircuit[s.circuit]; dup {
				return fmt.Errorf("%w: circuit %d owned by two sessions", snapshot.ErrCorruptSnapshot, s.circuit)
			}
			c.byCircuit[s.circuit] = id
		}
	}

	if err := c.events.RestoreState(d, c.decodeEvent); err != nil {
		return err
	}
	c.loop.SetEvents(d.U64())
	c.nextSession = d.Int()

	if err := c.quant.RestoreState(d); err != nil {
		return err
	}
	c.retries = d.Int()
	c.lost = d.Int()
	c.leaked = d.Int()
	c.goodputWS = d.F64()
	return d.Finish()
}
