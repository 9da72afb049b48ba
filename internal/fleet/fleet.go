// Package fleet is a deterministic discrete-event soak simulator for
// the photonic rack: days of simulated time in which Poisson hardware
// faults arrive from the chaos engine, a self-healing control loop
// reroutes and splices tenant circuits around the damage,
// repair crews restore components after seeded MTTR delays, a spare
// chip pool depletes and replenishes, and admission control sheds and
// re-admits tenant jobs as capacity moves. The paper's availability
// argument (§5, Figure 6) rests on exactly this regime — compounding
// faults over long horizons, not single-fault trials — and the
// invariant auditor rides along for the whole soak, re-checking the
// shared optical state after every mutation.
//
// A soak is a pure function of its Config: the fault schedule, repair
// durations and job placement all derive from split streams of the
// seed, and every tie in the event queue is broken deterministically,
// so equal-seed runs produce byte-identical time series regardless of
// how a campaign fans trials across CPUs.
package fleet

import (
	"errors"
	"fmt"

	"lightpath/internal/chaos"
	"lightpath/internal/evloop"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// The soak's fixed model: repair crews working concurrently (excess
// faults queue for service in arrival order), chips held out of tenant
// placement as a replacement pool from the top of the chip range, and
// the wavelength width each tenant job requests.
const (
	crews  = 2
	spares = 4
	width  = 4
)

// Config parameterizes one soak. The zero value of every field takes
// the default documented on it; RunCheckpointed never mutates the
// caller's copy. The rack's wafers are wafer.DefaultConfig.
type Config struct {
	// Seed drives the fault schedule, repair durations and job
	// placement through independent split streams.
	Seed uint64
	// Wafers is the rack size (default 2, the TPUv4 rack).
	Wafers int
	// Horizon is the simulated soak duration (default 3 days).
	Horizon unit.Seconds
	// SampleEvery is the availability time-series cadence (default
	// Horizon/72, one row per simulated hour at the default horizon).
	SampleEvery unit.Seconds
	// Rates are the chaos engine's per-class MTBFs and degraded-segment
	// loss bound; all-zero MTBFs take DefaultRates.
	Rates chaos.Rates
	// Jobs is the number of tenant jobs, each wanting one circuit
	// between two dedicated chips (default 12).
	Jobs int
	// Audit selects the invariant auditor's mode for the soak
	// (default Off; the campaign runs Paranoid).
	Audit invariant.Mode
}

// DefaultRates returns the soak's fault-arrival defaults: every class
// active, with rack-wide MTBFs dense enough that a three-day soak
// sees a few hundred faults.
func DefaultRates(horizon unit.Seconds) chaos.Rates {
	var r chaos.Rates
	for c := 0; c < chaos.NumClasses; c++ {
		r.MTBF[c] = horizon / 30
	}
	return r
}

// meanRepair returns a fault class's mean time to repair: hours-scale
// crew work, with whole-chip replacement the slowest.
func meanRepair(c chaos.Class) unit.Seconds {
	if c == chaos.ChipFailure {
		return 2 * unit.Hour
	}
	return 30 * unit.Minute
}

func (c Config) withDefaults() Config {
	if c.Wafers == 0 {
		c.Wafers = 2
	}
	if c.Horizon == 0 {
		c.Horizon = 3 * unit.Day
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = c.Horizon / 72
	}
	if c.Rates.MTBF == ([chaos.NumClasses]unit.Seconds{}) {
		c.Rates.MTBF = DefaultRates(c.Horizon).MTBF
	}
	if c.Jobs == 0 {
		c.Jobs = 12
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Wafers < 2:
		return fmt.Errorf("fleet: need at least two wafers, got %d", c.Wafers)
	case c.Horizon <= 0 || c.SampleEvery <= 0:
		return fmt.Errorf("fleet: non-positive horizon or sample cadence")
	case c.Jobs < 1:
		return fmt.Errorf("fleet: need at least one job")
	}
	chips := c.Wafers * wafer.DefaultConfig().Tiles()
	if 2*c.Jobs+spares > chips {
		return fmt.Errorf("fleet: %d jobs + %d spares need %d chips, rack has %d",
			c.Jobs, spares, 2*c.Jobs+spares, chips)
	}
	return nil
}

// Sample is one row of the availability time series.
type Sample struct {
	// T is the simulated sample time.
	T unit.Seconds
	// Up and Shed partition the tenant jobs: a full-width circuit, or
	// no circuit at all.
	Up, Shed int
	// Goodput is the fleet's delivered fraction of requested
	// bandwidth: the sum of live circuit widths over the sum of
	// requested widths.
	Goodput float64
	// Faults and Repairs are cumulative counts at the sample time.
	Faults, Repairs int
	// MeanBlast is the mean number of circuits torn down per fault so
	// far — the dynamic blast radius.
	MeanBlast float64
	// Spares is the current replacement-chip pool size.
	Spares int
	// Violations is the auditor's cumulative violation count.
	Violations int
}

// Outcome aggregates one soak.
type Outcome struct {
	// Samples is the availability time series: one row per
	// SampleEvery up to the horizon, in time order.
	Samples []Sample
	// Events counts the processed event boundaries — repairs, faults
	// and samples — over the whole soak; checkpoints land on these
	// boundaries.
	Events uint64
	// Faults and Repairs are the totals over the horizon.
	Faults, Repairs int
	// ShedEvents counts every time admission control dropped a job;
	// Readmissions counts jobs brought back after repairs.
	ShedEvents, Readmissions int
	// Reroutes counts circuits re-established after a fault tore them
	// down; Splices counts reroutes that needed a spare chip swapped
	// in for a dead endpoint.
	Reroutes, Splices int
	// MinSpares is the spare pool's low-water mark.
	MinSpares int
	// Availability is the mean over samples of the up-job fraction;
	// MeanGoodput averages the goodput column.
	Availability, MeanGoodput float64
	// Violations and Audits report the invariant auditor's findings
	// and effort over the whole soak.
	Violations, Audits int
}

// job is one tenant job: up while it holds a circuit, shed while
// circuit is nil.
type job struct {
	a, b    int
	circuit *route.Circuit
}

// soak is the running state of one Run.
type soak struct {
	cfg   Config
	alloc *route.Allocator
	rack  *wafer.Rack
	aud   *invariant.Auditor
	mttr  *rng.Rand

	// faults is the whole fault schedule, a pure function of the
	// config; out.Faults is the cursor into it, since faults apply in
	// schedule order.
	faults []chaos.Fault

	jobs   []*job
	jobOf  map[int]*job // established circuit ID -> owning job
	spares []int        // ascending chip ids
	// pending holds the schedule indexes of applied faults waiting for
	// a crew, in arrival order; repairs holds each busy crew's fault
	// index, keyed by completion time and ordered within an instant by
	// service start. A crew is busy exactly while its repair is queued.
	pending []int
	repairs evloop.Queue[int]

	// Event-loop cursors, part of the checkpoint: the next sample time
	// and the loop that counts processed event boundaries.
	nextSample unit.Seconds
	loop       *evloop.Loop

	out      Outcome
	blastSum int
}

// buildSoak constructs the soak skeleton — hardware, allocator,
// auditor, RNG streams, fault schedule — without tenant
// placement, which is the part a resume replays from the checkpoint
// instead. cfg must already have defaults applied and be valid.
func buildSoak(cfg Config, opts CheckpointOptions) (*soak, error) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), cfg.Wafers)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &soak{
		cfg:        cfg,
		rack:       rack,
		alloc:      route.NewAllocator(rack, root.Split("loss")),
		mttr:       root.Split("fleet/mttr"),
		jobOf:      make(map[int]*job),
		nextSample: cfg.SampleEvery,
		loop:       evloop.New(opts, checkpointVersion, checkpointEvery),
	}
	s.out.Samples = make([]Sample, 0, int(cfg.Horizon/cfg.SampleEvery))
	s.aud = invariant.Attach(s.alloc, cfg.Audit)

	// The whole fault schedule is precomputed — arrivals are
	// independent of everything the soak does, so a resume recomputes
	// the schedule and only the cursor travels in the checkpoint.
	cfgW := rack.Config()
	eng, err := chaos.NewEngine(cfg.Seed, chaos.Components{
		Chips:           rack.NumChips(),
		SwitchesPerTile: wafer.SwitchesPerTile,
		Wafers:          rack.NumWafers(),
		Rows:            cfgW.Rows,
		Cols:            cfgW.Cols,
		Trunks:          rack.NumTrunks(),
	}, cfg.Rates)
	if err != nil {
		return nil, err
	}
	s.faults = eng.Schedule(cfg.Horizon)
	return s, nil
}

// place runs tenant placement: a seeded permutation of the non-spare
// chips pairs off into job endpoints; the top spares chip ids start
// in the replacement pool.
func (s *soak) place() {
	chips := s.rack.NumChips()
	for chip := chips - spares; chip < chips; chip++ {
		s.spares = append(s.spares, chip)
	}
	s.out.MinSpares = len(s.spares)
	perm := rng.New(s.cfg.Seed).Split("fleet/jobs").Perm(chips - spares)
	for i := 0; i < s.cfg.Jobs; i++ {
		j := &job{a: perm[2*i], b: perm[2*i+1]}
		s.jobs = append(s.jobs, j)
		s.establish(j, 0)
	}
}

// run drives the event loop to the horizon (or to an injected stop).
// It returns only once the last checkpoint write has finished, with
// that write's error joined to whatever the soak itself returned.
func (s *soak) run() (*Outcome, error) {
	out, err := s.drive()
	if ferr := s.loop.Flush(); ferr != nil {
		return nil, errors.Join(err, ferr)
	}
	return out, err
}

// drive merges the three ordered event streams; ties are broken by
// kind — repairs land before faults, faults before samples — so the
// order is total and reproducible.
func (s *soak) drive() (*Outcome, error) {
	encode := s.encodeState
	for {
		const inf = unit.Seconds(1e18)
		ft, rt, st := inf, inf, inf
		if s.out.Faults < len(s.faults) {
			ft = s.faults[s.out.Faults].Time
		}
		// Repairs finishing after the horizon are outside the soak:
		// the clock stops at Horizon, backlog and all.
		if s.repairs.Len() > 0 {
			if at, _ := s.repairs.Peek(); at <= s.cfg.Horizon {
				rt = at
			}
		}
		if s.nextSample <= s.cfg.Horizon {
			st = s.nextSample
		}
		switch {
		case rt == inf && ft == inf && st == inf:
			s.finish()
			return &s.out, s.aud.Err()
		case rt <= ft && rt <= st:
			if err := s.completeRepair(s.repairs.Pop()); err != nil {
				return nil, err
			}
		case ft <= st:
			if err := s.applyFault(s.out.Faults); err != nil {
				return nil, err
			}
		default:
			s.sample(s.nextSample)
			s.nextSample += s.cfg.SampleEvery
		}
		if err := s.loop.Tick(encode); err != nil {
			return nil, err
		}
	}
}

// establish brings a job's circuit up at full width (initially or
// after repairs), or sheds the job when it does not fit.
func (s *soak) establish(j *job, now unit.Seconds) bool {
	c, err := s.alloc.Establish(route.Request{A: j.a, B: j.b, Width: width}, now)
	if err != nil {
		j.circuit = nil
		return false
	}
	j.circuit = c
	s.jobOf[c.ID] = j
	return true
}

// applyFault routes schedule fault i through the hardware and runs
// the self-healing loop over every circuit it tore down.
func (s *soak) applyFault(i int) error {
	f := s.faults[i]
	broken, err := s.alloc.ApplyFault(f)
	if err != nil {
		return fmt.Errorf("fleet: %v: %w", f, err)
	}
	s.out.Faults++
	s.blastSum += len(broken)
	if f.Class == chaos.ChipFailure {
		// A dead spare leaves the pool until its repair completes.
		for i, chip := range s.spares {
			if chip == f.Chip {
				s.spares = append(s.spares[:i], s.spares[i+1:]...)
				break
			}
		}
	}
	s.scheduleRepair(i)
	for _, c := range broken {
		j, ok := s.jobOf[c.ID]
		if !ok {
			continue
		}
		delete(s.jobOf, c.ID)
		s.heal(j, f.Time)
	}
	return nil
}

// heal is the self-healing control loop for one job whose circuit a
// fault tore down: splice a spare chip over any dead endpoint, then
// reroute at full width; when that does not fit, admission control
// sheds the job until repairs free capacity.
func (s *soak) heal(j *job, now unit.Seconds) {
	j.circuit = nil
	spliced := false
	for _, ep := range []*int{&j.a, &j.b} {
		if s.rack.TileOf(*ep).ChipHealthy() {
			continue
		}
		spare, ok := s.takeSpare()
		if !ok {
			s.out.ShedEvents++
			return
		}
		*ep = spare
		spliced = true
	}
	if !s.establish(j, now) {
		s.out.ShedEvents++
		return
	}
	s.out.Reroutes++
	if spliced {
		s.out.Splices++
	}
}

// takeSpare pops the lowest-id healthy spare chip.
func (s *soak) takeSpare() (int, bool) {
	for i, chip := range s.spares {
		if s.rack.TileOf(chip).ChipHealthy() {
			s.spares = append(s.spares[:i], s.spares[i+1:]...)
			if len(s.spares) < s.out.MinSpares {
				s.out.MinSpares = len(s.spares)
			}
			return chip, true
		}
	}
	return 0, false
}

// scheduleRepair queues schedule fault i for a crew; a free crew
// starts immediately, otherwise the fault waits in arrival order.
func (s *soak) scheduleRepair(i int) {
	s.pending = append(s.pending, i)
	s.dispatch(s.faults[i].Time)
}

// dispatch hands queued faults to free crews. Repair durations draw
// from the dedicated MTTR stream in service-start order, which the
// deterministic event order fixes.
func (s *soak) dispatch(now unit.Seconds) {
	for s.repairs.Len() < crews && len(s.pending) > 0 {
		i := s.pending[0]
		s.pending = s.pending[1:]
		d := unit.Seconds(s.mttr.Exp(float64(meanRepair(s.faults[i].Class))))
		s.repairs.Push(now+d, i)
	}
}

// completeRepair restores the component schedule fault i broke,
// returns repaired chips to the spare pool, and lets admission control
// re-admit shed jobs against the recovered capacity.
func (s *soak) completeRepair(at unit.Seconds, i int) error {
	f := s.faults[i]
	if err := s.alloc.Repair(f); err != nil {
		return fmt.Errorf("fleet: repair %v: %w", f, err)
	}
	if f.Class == chaos.ChipFailure && !s.chipInUse(f.Chip) {
		s.returnSpare(f.Chip)
	}
	s.out.Repairs++
	s.dispatch(at)
	s.recover(at)
	return nil
}

// chipInUse reports whether a chip is an endpoint of any job or
// already pooled as a spare.
func (s *soak) chipInUse(chip int) bool {
	for _, j := range s.jobs {
		if j.a == chip || j.b == chip {
			return true
		}
	}
	for _, c := range s.spares {
		if c == chip {
			return true
		}
	}
	return false
}

// returnSpare inserts a repaired chip back into the pool, keeping it
// sorted so takeSpare stays deterministic.
func (s *soak) returnSpare(chip int) {
	at := len(s.spares)
	for i, c := range s.spares {
		if c > chip {
			at = i
			break
		}
	}
	s.spares = append(s.spares, 0)
	copy(s.spares[at+1:], s.spares[at:])
	s.spares[at] = chip
}

// recover is admission control's reaction to restored capacity: shed
// jobs are re-admitted, in job order.
func (s *soak) recover(now unit.Seconds) {
	for _, j := range s.jobs {
		if j.circuit == nil && s.rack.TileOf(j.a).ChipHealthy() && s.rack.TileOf(j.b).ChipHealthy() && s.establish(j, now) {
			s.out.Readmissions++
		}
	}
}

// sample appends one time-series row.
func (s *soak) sample(t unit.Seconds) {
	row := Sample{
		T:          t,
		Faults:     s.out.Faults,
		Repairs:    s.out.Repairs,
		Spares:     len(s.spares),
		Violations: s.aud.Count(),
	}
	haveSum := 0
	for _, j := range s.jobs {
		if j.circuit != nil {
			row.Up++
			haveSum += j.circuit.Width
		} else {
			row.Shed++
		}
	}
	row.Goodput = float64(haveSum) / float64(len(s.jobs)*width)
	if s.out.Faults > 0 {
		row.MeanBlast = float64(s.blastSum) / float64(s.out.Faults)
	}
	s.out.Samples = append(s.out.Samples, row)
}

// finish folds the time series into the headline aggregates, summing
// the rows in chronological order.
func (s *soak) finish() {
	s.out.Violations = s.aud.Count()
	s.out.Audits = s.aud.Audits()
	s.out.Events = s.loop.Events()
	if len(s.out.Samples) == 0 {
		return
	}
	var live, good float64
	for _, row := range s.out.Samples {
		live += float64(row.Up) / float64(len(s.jobs))
		good += row.Goodput
	}
	n := float64(len(s.out.Samples))
	s.out.Availability = live / n
	s.out.MeanGoodput = good / n
}
