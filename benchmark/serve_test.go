package benchmark

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"lightpath/internal/ctrl"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// conns is the number of client connections a daemon workload drives:
// one per core of the 2-core reference machine, each a closed loop.
const conns = 2

// Nominal request rates (requests per second over both connections)
// used to size a round so a run takes about -seconds on the reference
// machine. They fix the work per round, not a target rate: a faster
// controller finishes the same rounds sooner.
const (
	steadyNominalRate   = 75_000
	overloadNominalRate = 110_000
)

// serveSpec describes one daemon workload.
type serveSpec struct {
	cfg  ctrl.Config
	tick unit.Seconds
	// release alternates Establish and Release on each connection;
	// false sends Establish only.
	release bool
	// fill is how many establishes the first connection sends, over
	// adjacent chip pairs, before the warm-up round.
	fill int
}

func steadySpec(seed uint64) serveSpec {
	cfg := ctrl.DefaultConfig()
	cfg.Seed = seed
	return serveSpec{cfg: cfg, tick: 5 * unit.Microsecond, release: true}
}

func overloadSpec(seed uint64) serveSpec {
	cfg := ctrl.DefaultConfig()
	cfg.Seed = seed
	cfg.QueueCap = overloadAdmitted
	return serveSpec{cfg: cfg, tick: 0, release: false, fill: overloadAdmitted}
}

// overloadAdmitted is serve-overload's queue capacity: with every
// request landing on the same virtual instant, exactly this many
// establishes are admitted and every later one is shed. One connection
// fills the queue alone, over adjacent chips that always route, so
// which establishes are admitted does not depend on how the two
// connections interleave.
const overloadAdmitted = 64

// uniformPair draws two distinct chips uniformly.
func uniformPair(r *rng.Rand, chips int) [2]int {
	a := r.Intn(chips)
	return [2]int{a, (a + 1 + r.Intn(chips-1)) % chips}
}

// perConnRequests sizes one round: the requests each connection sends,
// rounded down to an even count so establish/release pairs close.
func perConnRequests(rate, seconds float64, rounds int) int {
	n := int(rate*seconds/float64(conns*(rounds+1))) &^ 1
	if n < 2 {
		n = 2
	}
	return n
}

// daemon is one booted controller: Server behind Handler on a loopback
// listener, with connected clients.
type daemon struct {
	srv     *ctrl.Server
	ln      net.Listener
	conns   []net.Conn
	clients []*ctrl.Client
	served  chan error // the serve loop's return value
}

// boot starts a daemon and waits for the first OK health response.
// With a recorder the benchmark accepts connections itself and serves
// each through a timedConn; without one Handler.Serve does.
func boot(spec serveSpec, rec *recorder) (*daemon, error) {
	srv, err := ctrl.NewServer(spec.cfg)
	if err != nil {
		return nil, err
	}
	h := ctrl.NewHandler(srv, spec.tick)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, ln: ln, served: make(chan error, 1)}
	go func() {
		if rec == nil {
			d.served <- h.Serve(ln)
		} else {
			d.served <- serveTraced(h, ln, rec)
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, errors.Join(fmt.Errorf("dial: %w", err), d.close())
		}
		if rec != nil {
			c = rec.wrapClient(c)
		}
		d.conns = append(d.conns, c)
		d.clients = append(d.clients, ctrl.NewClient(c))
	}
	if _, err := d.clients[0].Health(); err != nil {
		return nil, errors.Join(fmt.Errorf("first health: %w", err), d.close())
	}
	return d, nil
}

// close hangs up every client, stops the listener and waits for the
// serve loop and all its connection goroutines to return. After close
// the server may be read without the handler's lock.
func (d *daemon) close() error {
	for _, c := range d.conns {
		_ = c.Close() // the peer's EOF is what ends its serve goroutine
	}
	_ = d.ln.Close() // Serve reports the closed listener as a nil return
	return <-d.served
}

// bootSample is one fresh boot (NewServer, NewHandler, listen, dial,
// first OK health) for sampleSetup; closing the daemon is its teardown.
func bootSample(spec serveSpec) func() (func() error, error) {
	return func() (func() error, error) {
		d, err := boot(spec, nil)
		if err != nil {
			return nil, err
		}
		return d.close, nil
	}
}

// clientLoop is one connection's closed loop.
type clientLoop struct {
	c       *ctrl.Client
	pairs   [][2]int
	next    int
	held    int // circuit held by the loop, -1 for none
	release bool

	lat    []time.Duration // this round's per-call latencies
	ok     int64
	shed   int64
	failed int64
	bad    string // first unexpected status or transport error
}

func newClientLoop(c *ctrl.Client, release bool, r *rng.Rand, chips int) *clientLoop {
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = uniformPair(r, chips)
	}
	return &clientLoop{c: c, pairs: pairs, held: -1, release: release}
}

// fill sends n establishes over adjacent chip pairs (0-1, 2-3, ...,
// wrapping), untimed.
func (l *clientLoop) fill(n, chips int) {
	for i := 0; i < n; i++ {
		a := (2 * i) % chips
		req := ctrl.Request{Op: ctrl.OpEstablish, A: a, B: a + 1, Width: 2}
		resp, err := l.c.Call(req)
		l.count(req, resp, err)
	}
}

// count classifies one call's outcome; false means the connection
// failed.
func (l *clientLoop) count(req ctrl.Request, resp ctrl.Response, err error) bool {
	if err != nil {
		l.failed++
		if l.bad == "" {
			l.bad = err.Error()
		}
		return false
	}
	switch {
	case resp.Status == ctrl.StatusOK:
		l.ok++
		if l.release && req.Op == ctrl.OpEstablish {
			l.held = resp.Circuit
		} else {
			l.held = -1
		}
	case resp.Status == ctrl.StatusOverloaded && !l.release:
		l.shed++
	default:
		l.failed++
		if l.bad == "" {
			l.bad = fmt.Sprintf("%s of %+v answered %s: %s", req.Op, req, resp.Status, resp.Detail)
		}
	}
	return true
}

// run sends n requests, timing each call.
func (l *clientLoop) run(n int) {
	l.lat = l.lat[:0]
	for i := 0; i < n; i++ {
		var req ctrl.Request
		if l.release && l.held >= 0 {
			req = ctrl.Request{Op: ctrl.OpRelease, Circuit: l.held}
		} else {
			p := l.pairs[l.next%len(l.pairs)]
			l.next++
			req = ctrl.Request{Op: ctrl.OpEstablish, A: p[0], B: p[1], Width: 2}
		}
		start := time.Now()
		resp, err := l.c.Call(req)
		l.lat = append(l.lat, time.Since(start))
		if !l.count(req, resp, err) {
			l.failed += int64(n - i - 1)
			return
		}
	}
}

// roundSample is one round's end-to-end reading.
type roundSample struct {
	elapsed        time.Duration
	calls          int
	sum            time.Duration // total of every call's latency
	p50, p99, p999 time.Duration
}

// runRound releases every loop for n requests, waits for all of them
// and reduces their latencies, sorting them in scratch (returned for
// reuse).
func runRound(loops []*clientLoop, n int, scratch []time.Duration) (roundSample, []time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range loops {
		wg.Add(1)
		go func(l *clientLoop) {
			defer wg.Done()
			l.run(n)
		}(l)
	}
	wg.Wait()
	s := roundSample{elapsed: time.Since(start)}
	scratch = scratch[:0]
	for _, l := range loops {
		scratch = append(scratch, l.lat...)
	}
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	for _, d := range scratch {
		s.sum += d
	}
	s.calls = len(scratch)
	s.p50, s.p99, s.p999 = percentile(scratch, 0.50), percentile(scratch, 0.99), percentile(scratch, 0.999)
	return s, scratch
}

// serveRun is the outcome of driving one daemon through its rounds.
type serveRun struct {
	d      *daemon
	rec    *recorder // nil unless traced
	loops  []*clientLoop
	perReq int           // requests per connection per round
	setup  [][]float64   // boot times in seconds, setupSamples per barrier
	cal    calibration   // canary readings, one per barrier and one after
	rounds []roundSample // timed rounds only
	trace  *serveTrace   // nil unless traced
}

// driveOpts shape one daemon drive.
type driveOpts struct {
	rounds  int  // timed rounds, after one untimed warm-up round
	perConn int  // requests per connection per round
	trace   bool // serve through timedConns and open a trace window
	profile bool // CPU-profile the timed rounds (with trace)
	setup   bool // take fresh-boot set-up samples at every round barrier
	canary  int  // canary exchanges per connection at every barrier; 0 for none
}

// driveServe boots the daemon for spec, runs the rounds and closes the
// daemon before it returns.
func driveServe(spec serveSpec, seed uint64, o driveOpts) (*serveRun, error) {
	run := &serveRun{perReq: o.perConn, cal: calibration{n: o.canary}}
	if o.trace {
		run.rec = newRecorder(captureCap)
	}
	d, err := boot(spec, run.rec)
	if err != nil {
		return nil, err
	}
	run.d = d
	root := rng.New(seed)
	chips := d.srv.Allocator().Rack().NumChips()
	for i, c := range d.clients {
		run.loops = append(run.loops, newClientLoop(c, spec.release, root.Split(fmt.Sprintf("benchmark/conn/%d", i)), chips))
	}
	run.loops[0].fill(spec.fill, chips)
	var tw *traceWindow
	var scratch []time.Duration
	for r := 0; r <= o.rounds; r++ {
		if o.setup {
			s, err := sampleSetup(bootSample(spec))
			if err != nil {
				return nil, errors.Join(err, d.close())
			}
			run.setup = append(run.setup, s)
		}
		if o.canary > 0 {
			if err := run.cal.read(); err != nil {
				return nil, errors.Join(err, d.close())
			}
		}
		if o.trace && r == 1 {
			if tw, err = startTraceWindow(run.rec, o.profile); err != nil {
				return nil, errors.Join(err, d.close())
			}
		}
		var s roundSample
		s, scratch = runRound(run.loops, o.perConn, scratch)
		if r > 0 {
			run.rounds = append(run.rounds, s)
		}
	}
	if tw != nil {
		if run.trace, err = tw.stop(); err != nil {
			return nil, errors.Join(err, d.close())
		}
	}
	if o.canary > 0 {
		if err := run.cal.read(); err != nil {
			return nil, errors.Join(err, d.close())
		}
	}
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("serve loop: %w", err)
	}
	return run, nil
}

// totals sums the loops' outcome counters.
func (run *serveRun) totals() (ok, shed, failed int64, bad string) {
	for _, l := range run.loops {
		ok += l.ok
		shed += l.shed
		failed += l.failed
		if bad == "" {
			bad = l.bad
		}
	}
	return ok, shed, failed, bad
}

// opsPerSecond is the run's calls answered per wall second, calibrated
// when the run took canary readings.
func (run *serveRun) opsPerSecond() float64 {
	calls := make([]int, len(run.rounds))
	elapsed := make([]time.Duration, len(run.rounds))
	for i, s := range run.rounds {
		calls[i], elapsed[i] = s.calls, s.elapsed
	}
	return run.cal.rate(calls, elapsed)
}

// roundSeconds is the median wall time of the run's timed rounds,
// uncalibrated.
func (run *serveRun) roundSeconds() float64 {
	var s []float64
	for _, r := range run.rounds {
		s = append(s, r.elapsed.Seconds())
	}
	return median(s)
}

func runServeSteady(opts options) (*report, error) {
	return runServe(opts, steadySpec(opts.seed), steadyNominalRate)
}

func runServeOverload(opts options) (*report, error) {
	return runServe(opts, overloadSpec(opts.seed), overloadNominalRate)
}

func runServe(opts options, spec serveSpec, rate float64) (*report, error) {
	perConn := perConnRequests(rate, opts.seconds, opts.rounds)
	run, err := driveServe(spec, opts.seed, driveOpts{
		rounds:  opts.rounds,
		perConn: perConn,
		trace:   opts.trace,
		profile: opts.trace,
		setup:   !opts.trace,
		canary:  canaryFor(opts),
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	ok, shed, failed, bad := run.totals()
	rep.Attempted = ok + shed + failed
	rep.Failed = failed
	if failed > 0 {
		rep.fail("%d request(s) failed; first: %s", failed, bad)
	}
	checkServeGates(rep, run, spec, ok, shed)

	if opts.trace {
		rep.set("trace.ops_per_s", run.opsPerSecond(), "1/s")
		rep.set("trace.round_s", run.roundSeconds(), "s")
		return rep, errors.Join(emitServeTrace(rep, run, spec), emitCanary(rep, opts))
	}
	rep.set("ops_per_s", run.opsPerSecond(), "1/s")
	rep.set("setup_s", run.cal.setupSeconds(run.setup), "s")
	return rep, nil
}

// checkServeGates applies the daemon workloads' correctness gates to
// the closed daemon.
func checkServeGates(rep *report, run *serveRun, spec serveSpec, ok, shed int64) {
	srv := run.d.srv
	st := srv.Stats()
	outcomes := st.Served + st.Shed + st.DeadlineMiss + st.BreakerRejects + st.NoPath +
		st.EndpointFailed + st.UnknownCircuit + st.BadRequest
	if st.Arrivals != outcomes {
		rep.fail("stats do not add up: %d arrivals, %d outcomes (%+v)", st.Arrivals, outcomes, st)
	}
	if n := srv.Auditor().Count(); n != 0 {
		rep.fail("invariant auditor found %d violation(s): %v", n, srv.Auditor().Err())
	}
	if spec.release {
		if n := srv.Allocator().NumCircuits(); n != 0 {
			rep.fail("%d circuit(s) still allocated after every establish was released", n)
		}
		return
	}
	if ok != overloadAdmitted {
		rep.fail("%d establishes answered OK, want exactly %d (the queue capacity)", ok, overloadAdmitted)
	}
	if shed == 0 {
		rep.fail("no establish was shed")
	}
}
