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
	// overridden with the campaign seed.
	Ctrl ctrl.Config
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
	// Served, Degraded, Shed, DeadlineMiss, BreakerRejects, NoPath and
	// EndpointFailed mirror the controller's counters.
	Served, Degraded, Shed, DeadlineMiss, BreakerRejects, NoPath, EndpointFailed int
	// Retries counts backoff-scheduled resubmits; Lost counts establish
	// requests abandoned after MaxRetries; Leaked counts circuits whose
	// release was abandoned after MaxRetries (should stay zero).
	Retries, Lost, Leaked int
	// BreakerTrips totals breaker open transitions across regions.
	BreakerTrips int
	// Faults, Reroutes, RerouteDegraded and CircuitsLost describe the
	// chaos path: faults applied, broken circuits transparently moved
	// (RerouteDegraded of them at reduced width) and circuits lost.
	Faults, Reroutes, RerouteDegraded, CircuitsLost int
	// GoodputWS is the delivered goodput in width-seconds: granted
	// width integrated over each circuit's actual lifetime.
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
type evKind int

const (
	evArrival evKind = iota // agent issues its next fresh request
	evRetry                 // backoff-scheduled resubmit of a session
	evRelease               // session releases its circuit
	evFault                 // chaos fault hits the fabric
)

// event is one queued event's payload. agent is used by evArrival;
// session and attempt by evRetry/evRelease; fault indexes the
// precomputed chaos schedule (recomputed on resume, so only the index
// travels in a checkpoint).
type event struct {
	kind    evKind
	agent   int
	session int
	attempt int
	fault   int
}

// phase is a session's position in its lifecycle.
type phase int

const (
	phaseEstablish phase = iota // submitted or awaiting retry of establish
	phaseOpen                   // circuit granted, release scheduled
	phaseRelease                // release submitted or awaiting retry
)

// session is one fresh request's lifecycle: establish (with retries),
// hold, release (with retries). Sessions whose circuit is killed by a
// fault are closed by the fault handler; their stale release events
// no-op.
type session struct {
	agent      int
	a, b       int
	width      int
	phase      phase
	firstAt    unit.Seconds // first establish submit (latency baseline)
	circuit    int
	grantWidth int
	openedAt   unit.Seconds // when the current grant started (goodput baseline)
}

// agentState is one client agent: its chip, its independent rng
// stream, and how many fresh arrivals it has issued.
type agentState struct {
	chip   int
	r      *rng.Rand
	issued int
}

// campaign is the full simulation state.
type campaign struct {
	cfg      Config
	digest   string // configDigest of cfg, which never changes
	srv      *ctrl.Server
	agents   []*agentState
	schedule []chaos.Fault

	events evloop.Queue[event]
	loop   *evloop.Loop
	// nextSession is the next session ID; sessions are only created by
	// fresh arrivals, so it also counts the fresh requests issued.
	nextSession int
	sessions    map[int]*session
	byCircuit   map[int]int // live circuit id -> session id
	ids         []int       // encodeState's sorted session-ID scratch

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
		cfg:       cfg,
		srv:       srv,
		sessions:  make(map[int]*session),
		byCircuit: make(map[int]int),
		loop:      evloop.New(opts, checkpointVersion, checkpointEvery),
		quant:     sketch.NewQuantile(0, root.Split("loadgen/sketch")),
	}
	c.digest = string(c.configDigest())
	chips := srv.Allocator().Rack().NumChips()
	if chips < 2 {
		return nil, fmt.Errorf("loadgen: need at least 2 chips, rack has %d", chips)
	}
	for i := 0; i < cfg.Agents; i++ {
		c.agents = append(c.agents, &agentState{
			chip: i % chips,
			r:    root.Split(fmt.Sprintf("loadgen/agent/%d", i)),
		})
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
	for i, ag := range c.agents {
		c.events.Push(unit.Seconds(ag.r.Exp(float64(cfg.MeanInterarrival))), event{kind: evArrival, agent: i})
	}
	for fi, f := range c.schedule {
		c.events.Push(f.Time, event{kind: evFault, fault: fi})
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
	ag := c.agents[ev.agent]
	chips := c.srv.Allocator().Rack().NumChips()
	b := (ag.chip + 1 + ag.r.Intn(chips-1)) % chips
	id := c.nextSession
	c.nextSession++
	s := &session{
		agent:   ev.agent,
		a:       ag.chip,
		b:       b,
		width:   c.cfg.Width,
		firstAt: at,
		circuit: -1,
	}
	c.sessions[id] = s
	c.submit(id, s, 0, at)

	ag.issued++
	if ag.issued < c.cfg.ArrivalsPerAgent {
		gap := unit.Seconds(ag.r.Exp(float64(c.cfg.MeanInterarrival)))
		c.events.Push(at+gap, event{kind: evArrival, agent: ev.agent})
	}
}

// onRetry resubmits a session's pending operation. The session may be
// gone (closed by a fault while the retry was queued) — stale retries
// no-op.
func (c *campaign) onRetry(at unit.Seconds, ev event) {
	s, ok := c.sessions[ev.session]
	if !ok || s.phase == phaseOpen {
		return
	}
	c.submit(ev.session, s, ev.attempt, at)
}

// onRelease submits a session's release. Stale events (circuit already
// lost to a fault) no-op.
func (c *campaign) onRelease(at unit.Seconds, ev event) {
	s, ok := c.sessions[ev.session]
	if !ok || s.phase != phaseOpen {
		return
	}
	s.phase = phaseRelease
	c.submit(ev.session, s, 0, at)
}

// onFault applies one scheduled fault and reconciles every session the
// blast radius touched: rerouted circuits keep their session (goodput
// credited at the old width, restarted at the new), lost circuits
// close theirs.
func (c *campaign) onFault(at unit.Seconds, ev event) error {
	rep, err := c.srv.ApplyFault(c.schedule[ev.fault], at)
	if err != nil {
		return err
	}
	for _, mv := range rep.Moves {
		sid, ok := c.byCircuit[mv.OldID]
		if !ok {
			continue
		}
		s := c.sessions[sid]
		c.goodputWS += float64(s.grantWidth) * float64(at-s.openedAt)
		delete(c.byCircuit, mv.OldID)
		if mv.NewID < 0 {
			delete(c.sessions, sid)
			continue
		}
		s.circuit = mv.NewID
		s.grantWidth = mv.NewWidth
		s.openedAt = at
		c.byCircuit[mv.NewID] = sid
	}
	return nil
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
	ag := c.agents[s.agent]
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
			c.goodputWS += float64(s.grantWidth) * float64(done-s.openedAt)
			delete(c.byCircuit, s.circuit)
			delete(c.sessions, id)
			return
		}
		s.phase = phaseOpen
		s.circuit = resp.Circuit
		s.grantWidth = resp.Width
		s.openedAt = done
		c.byCircuit[resp.Circuit] = id
		c.quant.Add(float64(done-s.firstAt) / float64(unit.Microsecond))
		hold := unit.Seconds(ag.r.Exp(float64(c.cfg.MeanHold)))
		c.events.Push(done+hold, event{kind: evRelease, session: id})

	case resp.Status == ctrl.StatusUnknownCircuit && s.phase == phaseRelease:
		// The circuit vanished between scheduling and submit (fault
		// path); nothing left to release.
		delete(c.sessions, id)

	case retryable(resp.Status) && attempt < c.cfg.Backoff.MaxRetries:
		c.retries++
		delay := c.cfg.Backoff.Delay(ag.r, attempt)
		c.events.Push(done+delay, event{kind: evRetry, session: id, attempt: attempt + 1})

	default:
		// Retries exhausted (or a non-retryable status): the request
		// is abandoned. An abandoned release leaks its circuit — the
		// counter exists to prove it stays at zero.
		if s.phase == phaseRelease {
			c.leaked++
			delete(c.byCircuit, s.circuit)
		} else {
			c.lost++
		}
		delete(c.sessions, id)
	}
}

// result assembles the campaign outcome and surfaces invariant
// violations as an error.
func (c *campaign) result() (*Result, error) {
	st := c.srv.Stats()
	horizon := c.srv.Clock()
	r := &Result{
		Requests:        c.nextSession,
		Attempts:        st.Arrivals,
		Served:          st.Served,
		Degraded:        st.Degraded,
		Shed:            st.Shed,
		DeadlineMiss:    st.DeadlineMiss,
		BreakerRejects:  st.BreakerRejects,
		NoPath:          st.NoPath,
		EndpointFailed:  st.EndpointFailed,
		Retries:         c.retries,
		Lost:            c.lost,
		Leaked:          c.leaked,
		BreakerTrips:    c.srv.BreakerTrips(),
		Faults:          st.FaultsApplied,
		Reroutes:        st.Reroutes,
		RerouteDegraded: st.RerouteDegraded,
		CircuitsLost:    st.CircuitsLost,
		GoodputWS:       c.goodputWS,
		Horizon:         horizon,
		Events:          c.loop.Events(),
		Violations:      c.srv.Auditor().Count(),
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
