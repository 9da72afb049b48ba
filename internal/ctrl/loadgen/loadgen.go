// Package loadgen is the controller's load harness: a deterministic
// discrete-event simulation of thousands of client agents driving one
// ctrl.Server through open-loop Poisson arrivals, capped-backoff
// retries, circuit hold/release cycles and mid-run chaos faults.
//
// Everything runs on the controller's virtual clock. Agents draw
// interarrival gaps, peer choices, hold times and retry jitter from
// per-agent split rng streams, so a campaign is a pure function of its
// Config — byte-identical across runs, across sequential/parallel
// trial execution, and across kill→resume from any event boundary.
// That is what lets a million-request campaign publish a golden CSV.
package loadgen

import (
	"errors"
	"fmt"
	"strconv"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/evloop"
	"lightpath/internal/rng"
	"lightpath/internal/sketch"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Config parameterizes one load campaign.
type Config struct {
	// Seed drives every stochastic stream in the campaign: the
	// controller's loss model, each agent's arrivals and jitter, the
	// chaos schedule and the quantile sketch.
	Seed uint64
	// Ctrl configures the controller under load. Its Seed field is
	// overridden with the campaign seed. The campaign digest skips it:
	// the nested server state carries the controller's own digest.
	Ctrl ctrl.Config `snapshot:"-"`
	// Agents is the number of concurrent client agents (default 256).
	Agents int
	// ArrivalsPerAgent is how many fresh establish requests each agent
	// issues over the campaign (default 1000).
	ArrivalsPerAgent int
	// MeanInterarrival is each agent's open-loop Poisson gap between
	// fresh arrivals — open loop, so a slow controller does not slow
	// the offered load down (default 750 us).
	MeanInterarrival unit.Seconds
	// MeanHold is the mean (exponential) time a granted circuit is
	// held before release (default 1 ms).
	MeanHold unit.Seconds
	// Width is the lane width each establish requests (default 4).
	Width int
	// Deadline is the per-request service budget attached to establish
	// requests (default 1 ms; negative disables deadlines).
	Deadline unit.Seconds
	// Backoff is the agents' retry schedule (default ctrl.DefaultBackoff).
	Backoff ctrl.Backoff
	// Rates enables mid-run chaos faults; the zero value injects none.
	Rates chaos.Rates
}

func (c Config) withDefaults() Config {
	if c.Agents <= 0 {
		c.Agents = 256
	}
	if c.ArrivalsPerAgent <= 0 {
		c.ArrivalsPerAgent = 1000
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 750 * unit.Microsecond
	}
	if c.MeanHold <= 0 {
		c.MeanHold = unit.Millisecond
	}
	if c.Width <= 0 {
		c.Width = 4
	}
	if c.Deadline < 0 {
		c.Deadline = 0
	} else if c.Deadline == 0 {
		c.Deadline = unit.Millisecond
	}
	if c.Backoff == (ctrl.Backoff{}) {
		c.Backoff = ctrl.DefaultBackoff()
	}
	return c
}

// Result is one campaign's outcome.
type Result struct {
	// Requests is the number of fresh establish requests issued;
	// Attempts counts every submit including retries and releases.
	Requests, Attempts int
	// Served, Shed, DeadlineMiss, BreakerRejects, NoPath and
	// EndpointFailed mirror the controller's counters.
	Served, Shed, DeadlineMiss, BreakerRejects, NoPath, EndpointFailed int
	// Retries counts backoff-scheduled resubmits; Lost counts establish
	// requests abandoned after MaxRetries; Leaked counts circuits whose
	// release was abandoned after MaxRetries (should stay zero).
	Retries, Lost, Leaked int
	// BreakerTrips totals breaker open transitions across regions.
	BreakerTrips int
	// Faults, Reroutes and CircuitsLost describe the chaos path:
	// faults applied, broken circuits transparently moved and circuits
	// lost.
	Faults, Reroutes, CircuitsLost int
	// GoodputWS is the delivered goodput in width-seconds: width
	// integrated over each circuit's actual lifetime.
	GoodputWS float64
	// P50us and P99us are the setup-latency percentiles in
	// microseconds over served establishes, first arrival to grant,
	// retries included.
	P50us, P99us float64
	// RPS is the offered attempt rate in requests per simulated second.
	RPS float64
	// Horizon is the campaign's virtual end time; Events the event
	// count (the checkpoint boundary space).
	Horizon unit.Seconds
	Events  uint64
	// Violations is the invariant auditor's violation count (must be
	// zero; Run also returns an error when it is not).
	Violations int
	// CacheHits and CacheMisses are always 0: the allocator keeps no
	// route-plan cache. They remain only until the benchmark's
	// per-layer report stops reading them.
	CacheHits, CacheMisses uint64
}

// event kinds. Events due at the same instant pop in push order, so
// the kind never breaks a tie.
type evKind uint8

const (
	evArrival evKind = iota // agent issues its next fresh request
	evRetry                 // backoff-scheduled resubmit of a session
	evRelease               // session releases its circuit
	evFault                 // chaos fault hits the fabric
)

// event is one queued event's payload, 16 bytes so a heap entry is
// 32. id is the agent for evArrival, the session for evRetry and
// evRelease, and for evFault the index into the precomputed chaos
// schedule (recomputed on resume, so only the index travels in a
// checkpoint). attempt is used by evRetry alone.
type event struct {
	kind    evKind
	attempt int32
	id      int
}

// phase is a session's position in its lifecycle.
type phase int

const (
	phaseEstablish phase = iota // submitted or awaiting retry of establish
	phaseOpen                   // circuit granted, release scheduled
	phaseRelease                // release submitted or awaiting retry
	phaseClosed                 // over: the session's slot is a gap
)

// session is one fresh request's lifecycle: establish (with retries),
// hold, release (with retries). Sessions whose circuit is killed by a
// fault are closed by the fault handler; their stale release events
// no-op. Sessions live by value in the campaign's sessionTable.
type session struct {
	agent    int
	a, b     int
	width    int // asked and, once granted, held: a grant is never narrower
	phase    phase
	firstAt  unit.Seconds // first establish submit (latency baseline)
	circuit  int
	openedAt unit.Seconds // when the current grant started (goodput baseline)
}

// agentState is one client agent: its chip, its independent rng
// stream, and how many fresh arrivals it has issued. The campaign keeps
// its agents by value in one array, stream included.
type agentState struct {
	chip   int
	r      rng.Rand
	issued int
}

// campaign is the full simulation state.
type campaign struct {
	cfg      Config
	srv      *ctrl.Server
	agents   []agentState
	schedule []chaos.Fault

	events evloop.Queue[event]
	loop   *evloop.Loop
	// sessions holds the open sessions. They are only created by fresh
	// arrivals, so its next ID also counts the fresh requests issued.
	sessions sessionTable

	// Result statistics. Attempts need no counter: submit is the
	// server's only caller, so its Stats.Arrivals counts them.
	quant     *sketch.Quantile
	retries   int
	lost      int
	leaked    int
	goodputWS float64
}

// build constructs the campaign skeleton: server, agents, chaos
// schedule and the initial arrival events. Deterministic from cfg.
func build(cfg Config, opts CheckpointOptions) (*campaign, error) {
	cfg = cfg.withDefaults()
	srvCfg := cfg.Ctrl
	srvCfg.Seed = cfg.Seed
	srv, err := ctrl.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	c := &campaign{
		cfg:   cfg,
		srv:   srv,
		loop:  evloop.New(opts, checkpointVersion, checkpointEvery),
		quant: sketch.NewQuantile(0, root.Split("loadgen/sketch")),
	}
	chips := srv.Allocator().Rack().NumChips()
	if chips < 2 {
		return nil, fmt.Errorf("loadgen: need at least 2 chips, rack has %d", chips)
	}
	// Agent i's stream is labelled "loadgen/agent/<i>". The labels are
	// built in one buffer, and SplitValue keeps none of them.
	c.agents = make([]agentState, cfg.Agents)
	var buf [32]byte
	label := append(buf[:0], "loadgen/agent/"...)
	prefix := len(label)
	for i := range c.agents {
		label = strconv.AppendInt(label[:prefix], int64(i), 10)
		c.agents[i] = agentState{chip: i % chips, r: root.SplitValue(string(label))}
	}

	// The fault schedule is precomputed over the nominal load horizon
	// (arrivals stop after ArrivalsPerAgent each); like the fleet soak,
	// only cursors travel in a checkpoint and the schedule itself is
	// recomputed from the config on resume.
	horizon := unit.Seconds(float64(cfg.ArrivalsPerAgent)) * cfg.MeanInterarrival
	rack := srv.Allocator().Rack()
	rackCfg := rack.Config()
	eng, err := chaos.NewEngine(cfg.Seed, chaos.Components{
		Chips:           rack.NumChips(),
		SwitchesPerTile: wafer.SwitchesPerTile,
		Wafers:          rack.NumWafers(),
		Rows:            rackCfg.Rows,
		Cols:            rackCfg.Cols,
		Trunks:          rack.NumTrunks(),
	}, cfg.Rates)
	if err != nil {
		return nil, err
	}
	c.schedule = eng.Schedule(horizon)

	// Seed the heap: each agent's first arrival, then every fault.
	c.events.Reserve(len(c.agents) + len(c.schedule))
	for i := range c.agents {
		c.events.Push(unit.Seconds(c.agents[i].r.Exp(float64(cfg.MeanInterarrival))), event{kind: evArrival, id: i})
	}
	for fi, f := range c.schedule {
		c.events.Push(f.Time, event{kind: evFault, id: fi})
	}
	return c, nil
}

// run drains the event queue, checkpointing at the configured cadence.
// It returns only once the last checkpoint write has finished, with
// that write's error joined to whatever the run itself returned.
func (c *campaign) run() (*Result, error) {
	res, err := c.drain()
	if ferr := c.loop.Flush(); ferr != nil {
		return nil, errors.Join(err, ferr)
	}
	return res, err
}

// drain pops and handles events until the queue is empty, ticking the
// event loop at every boundary.
func (c *campaign) drain() (*Result, error) {
	encode := c.encodeState
	for c.events.Len() > 0 {
		at, ev := c.events.Pop()
		switch ev.kind {
		case evArrival:
			c.onArrival(at, ev)
		case evRetry:
			c.onRetry(at, ev)
		case evRelease:
			c.onRelease(at, ev)
		case evFault:
			if err := c.onFault(at, ev); err != nil {
				return nil, err
			}
		}
		if err := c.loop.Tick(encode); err != nil {
			return nil, err
		}
	}
	return c.result()
}

// onArrival issues agent's next fresh establish and, while the agent
// has arrivals left, schedules the following one.
func (c *campaign) onArrival(at unit.Seconds, ev event) {
	ag := &c.agents[ev.id]
	chips := c.srv.Allocator().Rack().NumChips()
	b := (ag.chip + 1 + ag.r.Intn(chips-1)) % chips
	id, s := c.sessions.add(session{
		agent:   ev.id,
		a:       ag.chip,
		b:       b,
		width:   c.cfg.Width,
		firstAt: at,
		circuit: -1,
	})
	c.submit(id, s, 0, at)

	ag.issued++
	if ag.issued < c.cfg.ArrivalsPerAgent {
		gap := unit.Seconds(ag.r.Exp(float64(c.cfg.MeanInterarrival)))
		c.events.Push(at+gap, event{kind: evArrival, id: ev.id})
	}
}

// onRetry resubmits a session's pending operation. The session may be
// gone (closed by a fault while the retry was queued) — stale retries
// no-op.
func (c *campaign) onRetry(at unit.Seconds, ev event) {
	s, ok := c.sessions.get(ev.id)
	if !ok || s.phase == phaseOpen {
		return
	}
	c.submit(ev.id, s, int(ev.attempt), at)
}

// onRelease submits a session's release. Stale events (circuit already
// lost to a fault) no-op.
func (c *campaign) onRelease(at unit.Seconds, ev event) {
	s, ok := c.sessions.get(ev.id)
	if !ok || s.phase != phaseOpen {
		return
	}
	s.phase = phaseRelease
	c.submit(ev.id, s, 0, at)
}

// onFault applies one scheduled fault and reconciles every session the
// blast radius touched: rerouted circuits keep their session (goodput
// credited up to the fault, restarted on the new circuit), lost
// circuits close theirs. Moves are matched, in the order the server
// reports them, against the sessions holding a circuit, walked in ID
// order.
func (c *campaign) onFault(at unit.Seconds, ev event) error {
	moves, err := c.srv.ApplyFault(c.schedule[ev.id], at)
	if err != nil {
		return err
	}
	for _, mv := range moves {
		sid, s := c.holder(mv.OldID)
		if s == nil {
			continue
		}
		c.goodputWS += float64(s.width) * float64(at-s.openedAt)
		if mv.NewID < 0 {
			c.sessions.close(sid)
			continue
		}
		s.circuit = mv.NewID
		s.openedAt = at
	}
	return nil
}

// holder returns the first open session, in ID order, that holds
// circuit: one past its establish phase whose grant names it. It
// returns a nil session when there is none.
func (c *campaign) holder(circuit int) (int, *session) {
	w := c.sessions.window()
	for i := range w {
		if s := &w[i]; (s.phase == phaseOpen || s.phase == phaseRelease) && s.circuit == circuit {
			return c.sessions.first + i, s
		}
	}
	return 0, nil
}

// retryable reports whether a status is worth a backoff retry.
// Overload, deadline and breaker rejections are transient by
// construction; setup failures can clear as other circuits release or
// reroutes settle.
func retryable(st ctrl.Status) bool {
	switch st {
	case ctrl.StatusOverloaded, ctrl.StatusDeadline, ctrl.StatusBreakerOpen,
		ctrl.StatusNoPath, ctrl.StatusEndpointFailed:
		return true
	}
	return false
}

// submit runs one attempt of the session's pending operation through
// the controller and schedules the consequences.
func (c *campaign) submit(id int, s *session, attempt int, at unit.Seconds) {
	ag := &c.agents[s.agent]
	var req ctrl.Request
	if s.phase == phaseRelease {
		req = ctrl.Request{Op: ctrl.OpRelease, Circuit: s.circuit}
	} else {
		req = ctrl.Request{Op: ctrl.OpEstablish, A: s.a, B: s.b, Width: s.width, Deadline: c.cfg.Deadline}
	}
	resp, done := c.srv.Submit(req, at)

	switch {
	case resp.Status == ctrl.StatusOK:
		if s.phase == phaseRelease {
			c.goodputWS += float64(s.width) * float64(done-s.openedAt)
			c.sessions.close(id)
			return
		}
		s.phase = phaseOpen
		s.circuit = resp.Circuit
		s.openedAt = done
		c.quant.Add(float64(done-s.firstAt) / float64(unit.Microsecond))
		hold := unit.Seconds(ag.r.Exp(float64(c.cfg.MeanHold)))
		c.events.Push(done+hold, event{kind: evRelease, id: id})

	case resp.Status == ctrl.StatusUnknownCircuit && s.phase == phaseRelease:
		// The circuit vanished between scheduling and submit (fault
		// path); nothing left to release.
		c.sessions.close(id)

	case retryable(resp.Status) && attempt < c.cfg.Backoff.MaxRetries:
		c.retries++
		delay := c.cfg.Backoff.Delay(&ag.r, attempt)
		c.events.Push(done+delay, event{kind: evRetry, attempt: int32(attempt + 1), id: id})

	default:
		// Retries exhausted (or a non-retryable status): the request
		// is abandoned. An abandoned release leaks its circuit — the
		// counter exists to prove it stays at zero.
		if s.phase == phaseRelease {
			c.leaked++
		} else {
			c.lost++
		}
		c.sessions.close(id)
	}
}

// result assembles the campaign outcome and surfaces invariant
// violations as an error.
func (c *campaign) result() (*Result, error) {
	st := c.srv.Stats()
	horizon := c.srv.Clock()
	r := &Result{
		Requests:       c.sessions.next(),
		Attempts:       st.Arrivals,
		Served:         st.Served,
		Shed:           st.Shed,
		DeadlineMiss:   st.DeadlineMiss,
		BreakerRejects: st.BreakerRejects,
		NoPath:         st.NoPath,
		EndpointFailed: st.EndpointFailed,
		Retries:        c.retries,
		Lost:           c.lost,
		Leaked:         c.leaked,
		BreakerTrips:   c.srv.BreakerTrips(),
		Faults:         st.FaultsApplied,
		Reroutes:       st.Reroutes,
		CircuitsLost:   st.CircuitsLost,
		GoodputWS:      c.goodputWS,
		Horizon:        horizon,
		Events:         c.loop.Events(),
		Violations:     c.srv.Auditor().Count(),
	}
	if c.quant.Count() > 0 {
		r.P50us = c.quant.Query(0.5)
		r.P99us = c.quant.Query(0.99)
	}
	if horizon > 0 {
		r.RPS = float64(st.Arrivals) / float64(horizon)
	}
	if err := c.srv.Auditor().Err(); err != nil {
		return r, err
	}
	return r, nil
}
