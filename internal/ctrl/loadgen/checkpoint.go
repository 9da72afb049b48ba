package loadgen

import (
	"fmt"
	"math"

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
// version 4 state. Version 5 carries the server's version 5 state: the
// rack and allocator sections drop the switch timing state and the
// circuits' ready times. Version 6 carries the server's version 6
// state: no failed-reroute count, and a digest of every wafer field.
// Version 7 carries the server's version 7 state: circuits' link
// reports drop the stored BER. Version 8 carries the server's version
// 8 state, whose config digest drops the constant service times and
// breaker tuning. Version 9 drops each session's granted width, which
// is its asked width now that no grant is narrower, and carries the
// server's version 9 state: no breaker probe counts and no degraded
// counters.
const checkpointVersion = 9

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

// configDigest encodes every campaign field, each of which shapes the
// event stream (Config.Ctrl is skipped: the controller's own config
// digest travels inside its nested state). Resume compares
// byte-for-byte.
func (c *campaign) configDigest() []byte { return snapshot.Digest(c.cfg) }

// encodeState serializes the full campaign at an event boundary.
func (c *campaign) encodeState(e *snapshot.Encoder) {
	e.String(string(c.configDigest()))
	c.srv.EncodeState(e)

	e.Len(len(c.agents))
	for i := range c.agents {
		ag := &c.agents[i]
		for _, w := range ag.r.State() {
			e.U64(w)
		}
		e.Int(ag.issued)
	}

	e.Len(c.sessions.open)
	w := c.sessions.window()
	for i := range w {
		s := &w[i]
		if s.phase == phaseClosed {
			continue
		}
		e.Int(c.sessions.first + i)
		e.Int(s.agent)
		e.Int(s.a)
		e.Int(s.b)
		e.Int(s.width)
		e.Int(int(s.phase))
		snapshot.Unit(e, s.firstAt)
		e.Int(s.circuit)
		snapshot.Unit(e, s.openedAt)
	}

	c.events.EncodeState(e, encodeEvent)
	e.U64(c.loop.Events())
	e.Int(c.sessions.next())

	c.quant.EncodeState(e)
	e.Int(c.retries)
	e.Int(c.lost)
	e.Int(c.leaked)
	e.F64(c.goodputWS)
}

// encodeEvent writes an event as five integers — kind, agent,
// session, attempt, fault — with every field the kind does not use
// zero.
func encodeEvent(e *snapshot.Encoder, ev event) {
	var agent, session, fault int
	switch ev.kind {
	case evArrival:
		agent = ev.id
	case evFault:
		fault = ev.id
	default: // evRetry, evRelease
		session = ev.id
	}
	e.Int(int(ev.kind))
	e.Int(agent)
	e.Int(session)
	e.Int(int(ev.attempt))
	e.Int(fault)
}

// decodeEvent reads one queued event. It refuses what the event cannot
// hold: an unknown kind, a nonzero field the kind does not use, a retry
// attempt outside [0, MaxRetries], an agent off the campaign, a
// session not yet issued (the restored session table's next ID bounds
// them) and a fault index outside the recomputed schedule.
func (c *campaign) decodeEvent(d *snapshot.Decoder) (event, error) {
	kind, agent, session, attempt, fault := d.Int(), d.Int(), d.Int(), d.Int(), d.Int()
	ev := event{kind: evKind(kind)}
	var unused int // the fields the kind does not use, ORed
	switch {
	case kind == int(evArrival):
		ev.id, unused = agent, session|attempt|fault
	case kind == int(evRetry):
		ev.id, unused = session, agent|fault
	case kind == int(evRelease):
		ev.id, unused = session, agent|attempt|fault
	case kind == int(evFault):
		ev.id, unused = fault, agent|session|attempt
	default:
		return event{}, fmt.Errorf("%w: event of unknown kind %d", snapshot.ErrCorruptSnapshot, kind)
	}
	switch {
	case unused != 0:
		return event{}, fmt.Errorf("%w: kind %d event sets a field its kind does not use (agent %d, session %d, attempt %d, fault %d)",
			snapshot.ErrCorruptSnapshot, kind, agent, session, attempt, fault)
	case attempt < 0 || attempt > c.cfg.Backoff.MaxRetries || attempt > math.MaxInt32:
		return event{}, fmt.Errorf("%w: retry attempt %d outside [0, %d]",
			snapshot.ErrCorruptSnapshot, attempt, c.cfg.Backoff.MaxRetries)
	case ev.kind == evArrival && (ev.id < 0 || ev.id >= len(c.agents)):
		return event{}, fmt.Errorf("%w: arrival for agent %d of %d",
			snapshot.ErrCorruptSnapshot, ev.id, len(c.agents))
	case (ev.kind == evRetry || ev.kind == evRelease) && (ev.id < 0 || ev.id >= c.sessions.next()):
		return event{}, fmt.Errorf("%w: kind %d event for session %d outside [0, %d)",
			snapshot.ErrCorruptSnapshot, kind, ev.id, c.sessions.next())
	case ev.kind == evFault && (ev.id < 0 || ev.id >= len(c.schedule)):
		return event{}, fmt.Errorf("%w: fault event %d outside schedule of %d",
			snapshot.ErrCorruptSnapshot, ev.id, len(c.schedule))
	}
	ev.attempt = int32(attempt)
	return ev, nil
}

// restoreState replays a checkpoint payload into a freshly built
// campaign skeleton. Session IDs are checked against the arrivals the
// agents issued, which is the next session ID: the open sessions must
// be strictly ascending below it, the queued events must name sessions
// below it, and the stored next ID must equal it.
func (c *campaign) restoreState(d *snapshot.Decoder) error {
	if err := d.CheckDigest(c.configDigest()); err != nil {
		return err
	}
	if err := c.srv.RestoreState(d); err != nil {
		return err
	}

	if n := d.Len(); d.Err() == nil && n != len(c.agents) {
		return fmt.Errorf("%w: checkpoint has %d agents, config says %d",
			snapshot.ErrCorruptSnapshot, n, len(c.agents))
	}
	issued := 0
	for i := range c.agents {
		ag := &c.agents[i]
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
		issued += ag.issued
	}

	n := d.Len()
	held := make(map[int]struct{}, n) // circuits the sessions read so far hold
	prev := -1
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.Int()
		s := session{
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
		s.openedAt = snapshot.DecodeUnit[unit.Seconds](d)
		if s.agent < 0 || s.agent >= len(c.agents) {
			return fmt.Errorf("%w: session %d owned by unknown agent %d",
				snapshot.ErrCorruptSnapshot, id, s.agent)
		}
		if id < 0 || id >= issued {
			return fmt.Errorf("%w: session %d outside [0, %d)", snapshot.ErrCorruptSnapshot, id, issued)
		}
		if id <= prev {
			return fmt.Errorf("%w: session %d listed after session %d", snapshot.ErrCorruptSnapshot, id, prev)
		}
		prev = id
		c.sessions.skipTo(id)
		c.sessions.add(s)
		if s.phase != phaseEstablish && s.circuit >= 0 {
			if _, ok := c.srv.Allocator().CircuitByID(s.circuit); !ok {
				return fmt.Errorf("%w: session %d references unknown circuit %d",
					snapshot.ErrCorruptSnapshot, id, s.circuit)
			}
			if _, dup := held[s.circuit]; dup {
				return fmt.Errorf("%w: circuit %d owned by two sessions", snapshot.ErrCorruptSnapshot, s.circuit)
			}
			held[s.circuit] = struct{}{}
		}
	}

	c.sessions.skipTo(issued)

	if err := c.events.RestoreState(d, c.decodeEvent); err != nil {
		return err
	}
	c.loop.SetEvents(d.U64())
	if next := d.Int(); d.Err() == nil && next != issued {
		return fmt.Errorf("%w: next session %d, but the agents issued %d arrivals",
			snapshot.ErrCorruptSnapshot, next, issued)
	}

	if err := c.quant.RestoreState(d); err != nil {
		return err
	}
	c.retries = d.Int()
	c.lost = d.Int()
	c.leaked = d.Int()
	c.goodputWS = d.F64()
	return d.Finish()
}
