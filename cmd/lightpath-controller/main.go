// Command lightpath-controller is the long-running lightpath setup
// daemon: it owns one rack's route.Allocator behind the ctrl frame
// protocol and answers establish/release/reroute/health requests with
// the full robustness ladder — bounded-queue admission and load
// shedding, per-request deadlines, per-chip two-state circuit
// breakers, and full-width reroute of circuits a fault breaks. The
// daemon runs on logical time (each request advances the virtual clock
// by -tick-us), so the deployed binary exercises exactly the semantics
// the deterministic million-request campaign validated.
//
// Usage:
//
//	lightpath-controller [flags]            serve until killed
//	lightpath-controller -selfcheck         boot, drill, and exit
//
// With -checkpoint the daemon snapshots its full state (allocator,
// auditor, breakers, clock, backlog, counters) every -ckpt-every
// requests, writing in the background; a failed write keeps it serving
// and becomes its exit error. -resume boots from that snapshot instead
// of empty, and a torn final write falls back to the previous good one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/unit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lightpath-controller:", err)
		os.Exit(1)
	}
}

type printer interface{ Write(p []byte) (int, error) }

type options struct {
	listen    string
	seed      uint64
	tick      unit.Seconds
	ckptPath  string
	ckptEvery uint64
	resume    bool
}

func run(args []string, out printer) error {
	fs := flag.NewFlagSet("lightpath-controller", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8419", "TCP address to serve the ctrl frame protocol on")
	seed := fs.Uint64("seed", 2024, "deterministic seed for the allocator's stochastic components")
	tickUS := fs.Float64("tick-us", 1, "virtual microseconds each request advances the clock (0 stacks all requests on one instant)")
	ckpt := fs.String("checkpoint", "", "snapshot file for crash tolerance (empty disables)")
	ckptEvery := fs.Uint64("ckpt-every", 4096, "checkpoint cadence in requests (with -checkpoint; must be positive)")
	resume := fs.Bool("resume", false, "boot from the -checkpoint snapshot instead of an empty rack")
	selfcheck := fs.Bool("selfcheck", false, "boot a daemon on a loopback port, run the robustness drill against it, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tickUS < 0 || math.IsNaN(*tickUS) || math.IsInf(*tickUS, 0) {
		return fmt.Errorf("-tick-us %v is not a finite non-negative number", *tickUS)
	}
	if *ckpt != "" && *ckptEvery == 0 {
		return errors.New("-ckpt-every 0 with -checkpoint would never write a checkpoint")
	}
	opts := options{
		listen:    *listen,
		seed:      *seed,
		tick:      unit.Seconds(*tickUS) * unit.Microsecond,
		ckptPath:  *ckpt,
		ckptEvery: *ckptEvery,
		resume:    *resume,
	}
	if *selfcheck {
		return runSelfcheck(opts, out)
	}
	return serve(opts, out)
}

// boot builds the daemon's server: fresh from config, or restored from
// the checkpoint when resuming.
func boot(opts options) (*ctrl.Server, error) {
	cfg := ctrl.DefaultConfig()
	cfg.Seed = opts.seed
	if opts.resume {
		if opts.ckptPath == "" {
			return nil, errors.New("-resume needs -checkpoint")
		}
		return ctrl.LoadCheckpoint(cfg, opts.ckptPath)
	}
	return ctrl.NewServer(cfg)
}

// serve runs the daemon until the listener dies (typically: the
// process is killed, which is exactly the crash -resume recovers from).
func serve(opts options, out printer) error {
	srv, err := boot(opts)
	if err != nil {
		return err
	}
	h := ctrl.NewHandler(srv, opts.tick)
	if opts.ckptPath != "" {
		h.SetCheckpoint(opts.ckptPath, opts.ckptEvery)
	}
	l, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	defer func() { _ = l.Close() }()
	rack := srv.Allocator().Rack()
	if _, err := fmt.Fprintf(out, "lightpath-controller: serving %d chips on %s (seed %d, tick %v, %d circuits restored)\n",
		rack.NumChips(), l.Addr(), opts.seed, opts.tick, srv.Allocator().NumCircuits()); err != nil {
		return err
	}
	return errors.Join(h.Serve(l), h.Flush())
}

// runSelfcheck boots a real daemon on a loopback port and drills every
// rung of the robustness ladder over the wire: normal service, a
// hostile frame, deadline misses, breaker trips after a chip death,
// overload shedding, and checkpoint -> kill -> resume equivalence. It
// is the smoke test's first gate.
//
// The drill runs with a zero tick — every request lands on the same
// virtual instant, so the backlog never drains between submissions.
// That pins the order: the deadline and breaker rungs must run while
// the queue still has headroom, and the overload burst comes last.
func runSelfcheck(opts options, out printer) error {
	dir, err := os.MkdirTemp("", "lightpath-controller-selfcheck")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	ckpt := filepath.Join(dir, "ctrl.ckpt")

	cfg := ctrl.DefaultConfig()
	cfg.Seed = opts.seed
	cfg.QueueCap = 64
	srv, err := ctrl.NewServer(cfg)
	if err != nil {
		return err
	}
	h := ctrl.NewHandler(srv, 0)
	h.SetCheckpoint(ckpt, 64)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = l.Close() }()
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve(l) }()

	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }

	// Rung 0: normal service. Establish and health over the wire.
	conn, err := dial()
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	c := ctrl.NewClient(conn)
	first, err := c.Establish(0, 9, 2, unit.Millisecond)
	if err != nil {
		return fmt.Errorf("selfcheck: establish: %w", err)
	}
	if health, err := c.Health(); err != nil {
		return fmt.Errorf("selfcheck: health: %w", err)
	} else if health.Circuits != 1 {
		return fmt.Errorf("selfcheck: health reports %d circuits, want 1", health.Circuits)
	}

	// Rung 1: a hostile peer. Garbage costs that connection only.
	bad, err := dial()
	if err != nil {
		return err
	}
	if _, err := bad.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00}); err != nil {
		return err
	}
	if err := expectClosed(bad); err != nil {
		return fmt.Errorf("selfcheck: hostile frame: %w", err)
	}
	_ = bad.Close()
	if _, err := c.Health(); err != nil {
		return fmt.Errorf("selfcheck: daemon wedged by a hostile frame: %w", err)
	}

	// Rung 2: deadlines. A budget below the establish service time can
	// never be met; every attempt must come back as the taxonomy
	// sentinel without consuming queue capacity.
	var deadline int
	for i := 0; i < 3; i++ {
		_, err := c.Establish(10+i, 20+i, 1, unit.Microsecond)
		if errors.Is(err, ctrl.ErrDeadlineExceeded) {
			deadline++
		}
	}
	if deadline != 3 {
		return fmt.Errorf("selfcheck: impossible deadline met %d of 3 times", 3-deadline)
	}

	// Rung 3: chip death -> breaker. Hammering a dead endpoint must
	// first fail cleanly, then trip its breaker and fail fast.
	victim := 40
	moves, err := h.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: victim})
	if err != nil {
		return fmt.Errorf("selfcheck: fault injection: %w", err)
	}
	var endpoint, breaker int
	for i := 0; i < 4*ctrl.BreakerFailThreshold; i++ {
		_, err := c.Establish(victim, 50, 1, 0)
		switch {
		case errors.Is(err, ctrl.ErrBreakerOpen):
			breaker++
		case err != nil:
			endpoint++
		}
	}
	if endpoint != ctrl.BreakerFailThreshold || breaker != 3*ctrl.BreakerFailThreshold {
		return fmt.Errorf("selfcheck: dead chip drill: %d endpoint failures, %d breaker rejects (want %d and %d)",
			endpoint, breaker, ctrl.BreakerFailThreshold, 3*ctrl.BreakerFailThreshold)
	}

	// Rung 4: overload. Burst past the queue bound on one instant and
	// demand shedding, not buffering.
	var shed int
	for i := 0; i < 2*cfg.QueueCap; i++ {
		_, err := c.Establish(2*i%40+1, (2*i+21)%40+1, 1, 0)
		if errors.Is(err, ctrl.ErrOverloaded) {
			shed++
		}
	}
	if shed == 0 {
		return errors.New("selfcheck: overload burst produced no ErrOverloaded")
	}

	// Rung 5: crash -> resume. Re-arm at cadence 1 so the next request
	// writes a periodic checkpoint, flush it (with any earlier write's
	// failure), kill the daemon, resume from the file, and demand
	// identical state.
	h.SetCheckpoint(ckpt, 1)
	_, err = c.Health()
	if err = errors.Join(err, h.Flush()); err != nil {
		return fmt.Errorf("selfcheck: checkpoint: %w", err)
	}
	before := h.Stats()
	// Kill order matters: Serve drains per-connection goroutines before
	// returning, so the client hangs up first, then the listener dies.
	_ = conn.Close()
	_ = l.Close()
	if err := <-serveErr; err != nil {
		return fmt.Errorf("selfcheck: serve: %w", err)
	}
	// No connection holds the server now: one full audit of the state
	// every rung left behind, and the verdict over the daemon's life.
	srv.Auditor().Audit("selfcheck")
	if err := srv.Auditor().Err(); err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	restored, err := ctrl.LoadCheckpoint(cfg, ckpt)
	if err != nil {
		return fmt.Errorf("selfcheck: resume: %w", err)
	}
	if restored.Stats() != before {
		return fmt.Errorf("selfcheck: resumed stats diverge:\n  before %+v\n  after  %+v", before, restored.Stats())
	}
	if _, ok := restored.Allocator().CircuitByID(first.Circuit); !ok {
		return fmt.Errorf("selfcheck: circuit %d lost across resume", first.Circuit)
	}
	restored.Auditor().Audit("resume")
	if err := restored.Auditor().Err(); err != nil {
		return fmt.Errorf("selfcheck: resumed state: %w", err)
	}

	_, err = fmt.Fprintf(out,
		"selfcheck: ok\n"+
			"  served a circuit, survived a hostile frame, %d impossible deadlines refused\n"+
			"  chip %d killed (%d held circuits affected): %d clean endpoint failures, then %d fast breaker rejects\n"+
			"  overload burst: %d of %d establishes shed\n"+
			"  crash -> resume: stats identical, circuit %d intact\n"+
			"  audit: clean\n",
		deadline, victim, len(moves), endpoint, breaker,
		shed, 2*cfg.QueueCap, first.Circuit)
	return err
}

// expectClosed demands the peer close the connection without replying.
func expectClosed(conn net.Conn) error {
	buf := make([]byte, 64)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			return fmt.Errorf("peer replied with %d bytes instead of closing", n)
		}
		if err != nil {
			return nil
		}
	}
}
