package ctrl

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// newTestHandler boots a handler over a loopback listener and returns
// it together with a dialer for fresh client connections. The listener
// dies at test cleanup and Serve's return is checked for a clean exit.
func newTestHandler(t *testing.T, cfg Config, tick unit.Seconds) (*Handler, func() *Client) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	h := NewHandler(s, tick)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve(l) }()
	var conns []net.Conn
	var mu sync.Mutex
	t.Cleanup(func() {
		// Kill order matters: Serve drains per-connection goroutines
		// before returning, so clients hang up first, then the listener.
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		l.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v on clean shutdown", err)
		}
	})
	dial := func() *Client {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		return NewClient(conn)
	}
	return h, dial
}

// TestDaemonEndToEnd drives the full RPC surface through a real TCP
// connection: establish, health, reroute, release.
func TestDaemonEndToEnd(t *testing.T) {
	_, dial := newTestHandler(t, Config{Seed: 21}, unit.Microsecond)
	c := dial()

	est, err := c.Establish(0, 9, 2, unit.Millisecond)
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if est.Width != 2 || est.Degraded {
		t.Fatalf("establish granted %+v, want full width 2", est)
	}
	hr, err := c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if hr.Circuits != 1 {
		t.Fatalf("health reports %d circuits, want 1", hr.Circuits)
	}
	if len(hr.Regions) == 0 {
		t.Fatal("health report carries no breaker regions")
	}
	// Reroute re-establishes under a fresh ID; the old one dies with
	// the old path.
	rr, err := c.Reroute(est.Circuit, unit.Millisecond)
	if err != nil {
		t.Fatalf("reroute of a healthy circuit: %v", err)
	}
	if err := c.Release(rr.Circuit); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := c.Release(rr.Circuit); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("double release: %v, want ErrUnknownCircuit", err)
	}
}

// TestDaemonConcurrentClients hammers one handler from several
// connections at once. Under -race this proves the mutex actually
// covers every server touch; functionally it checks conservation:
// every request is answered and the final health tally balances.
func TestDaemonConcurrentClients(t *testing.T) {
	h, dial := newTestHandler(t, Config{Seed: 22, QueueCap: 4096}, 500*unit.Nanosecond)

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial()
			for j := 0; j < perClient; j++ {
				resp, err := c.Establish(id%8, 20+j%9, 1, 0)
				switch {
				case err == nil:
					if j%2 == 0 {
						if err := c.Release(resp.Circuit); err != nil {
							t.Errorf("client %d: release: %v", id, err)
							return
						}
					}
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrBreakerOpen),
					resp.Status == StatusNoPath:
					// Expected under contention: shed, exhausted tiles, or
					// the breaker tripped by the resulting no-path streak.
				default:
					t.Errorf("client %d: unclassified establish failure: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	stats := h.Stats()
	// Each client issues perClient establishes plus a release for every
	// even j that succeeded; successes vary with interleaving, so pin
	// the lower bound and the conservation invariant.
	if stats.Arrivals < clients*perClient {
		t.Fatalf("stats saw %d arrivals, want at least %d", stats.Arrivals, clients*perClient)
	}
	answered := stats.Served + stats.Shed + stats.DeadlineMiss + stats.BreakerRejects +
		stats.NoPath + stats.EndpointFailed + stats.BadRequest + stats.UnknownCircuit
	if answered != stats.Arrivals {
		t.Fatalf("answered %d of %d arrivals: some vanished", answered, stats.Arrivals)
	}
}

// TestDaemonBadFrameCostsOneConn sends garbage down one connection and
// checks the blast radius: that connection dies, the daemon keeps
// serving everyone else.
func TestDaemonBadFrameCostsOneConn(t *testing.T) {
	_, dial := newTestHandler(t, Config{Seed: 23}, unit.Microsecond)

	good := dial()
	if _, err := good.Establish(1, 30, 1, 0); err != nil {
		t.Fatalf("pre-hostility establish: %v", err)
	}

	// Dial through the same helper so cleanup closes the raw conn if
	// the server somehow doesn't.
	hc := dial()
	rawConn := hc.conn.(net.Conn)
	if _, err := rawConn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	// The daemon must close this connection: read until it does.
	buf := make([]byte, 64)
	for {
		if _, err := rawConn.Read(buf); err != nil {
			break
		}
	}

	// Everyone else is unaffected.
	if _, err := good.Health(); err != nil {
		t.Fatalf("post-hostility health on the good conn: %v", err)
	}
	fresh := dial()
	if _, err := fresh.Establish(2, 31, 1, 0); err != nil {
		t.Fatalf("post-hostility establish on a fresh conn: %v", err)
	}
}

// TestHandlerTickAdvancesClock pins the logical-time contract: each
// submitted request lands tick seconds after the previous one, so the
// virtual clock is a pure function of the request count.
func TestHandlerTickAdvancesClock(t *testing.T) {
	s, err := NewServer(Config{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	tick := 3 * unit.Microsecond
	h := NewHandler(s, tick)
	for i := 0; i < 10; i++ {
		h.Submit(Request{Op: OpHealth})
	}
	// The 10th request arrived at 9*tick; the clock clamps to the last
	// arrival, never beyond it.
	if got, want := s.Clock(), 9*tick; got != want {
		t.Fatalf("clock %v after 10 ticks, want %v", got, want)
	}
}

// TestHandlerPeriodicCheckpoint arms SetCheckpoint and checks a
// snapshot exists after the configured number of requests and restores
// to the handler's exact state.
func TestHandlerPeriodicCheckpoint(t *testing.T) {
	cfg := Config{Seed: 25}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	h := NewHandler(s, unit.Microsecond)
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	h.SetCheckpoint(path, 8)

	for i := 0; i < 8; i++ {
		h.Submit(Request{Op: OpEstablish, A: i % 4, B: 30 + i%4, Width: 1})
	}
	if err := h.CheckpointErr(); err != nil {
		t.Fatalf("periodic checkpoint failed: %v", err)
	}
	r, err := LoadCheckpoint(cfg, path)
	if err != nil {
		t.Fatalf("restore of the periodic checkpoint: %v", err)
	}
	if r.Stats() != s.Stats() {
		t.Fatalf("periodic checkpoint restored stale stats %+v, want %+v", r.Stats(), s.Stats())
	}

	// A failing path latches the error and disarms instead of breaking
	// service.
	h.SetCheckpoint(filepath.Join(t.TempDir(), "no-such-dir", "x", "y.ckpt"), 1)
	h.Submit(Request{Op: OpHealth})
	if h.CheckpointErr() == nil {
		t.Fatal("unwritable checkpoint path did not latch an error")
	}
	resp := h.Submit(Request{Op: OpHealth})
	if resp.Status != StatusOK {
		t.Fatalf("service degraded after checkpoint failure: %+v", resp)
	}
}

// countingConn counts the Read calls made on a connection; the count
// is read from the test goroutine while the serve goroutine reads.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// servePipe runs ServeConn for a fresh handler on one end of a
// net.Pipe and returns both ends, each counting its reads. Cleanup
// hangs up the client end and demands a clean return.
func servePipe(t testing.TB, cfg Config, tick unit.Seconds) (server, client *countingConn) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	h := NewHandler(s, tick)
	srvEnd, cliEnd := net.Pipe()
	server, client = &countingConn{Conn: srvEnd}, &countingConn{Conn: cliEnd}
	done := make(chan error, 1)
	go func() { done <- h.ServeConn(server) }()
	t.Cleanup(func() {
		client.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeConn returned %v after the client hung up", err)
		}
	})
	return server, client
}

// TestServeConnOneReadPerFrame pins the transport's syscall budget: a
// request/response exchange costs exactly one Read on the server and
// one on the client, the frame's header and payload arriving together.
func TestServeConnOneReadPerFrame(t *testing.T) {
	server, client := servePipe(t, Config{Seed: 26}, unit.Microsecond)
	c := NewClient(client)
	for i := int64(1); i <= 50; i++ {
		req := Request{Op: OpEstablish, A: 2, B: 17, Width: 1}
		if i%2 == 0 {
			req = Request{Op: OpRelease, Circuit: int(i / 2)}
		}
		if _, err := c.Call(req); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if s, cl := server.reads.Load(), client.reads.Load(); s != i || cl != i {
			t.Fatalf("after %d calls: %d server reads and %d client reads, want %d each", i, s, cl, i)
		}
	}
}

// TestServeConnPipelinedFrames sends several requests in one Write: the
// server must take them in a single Read and answer each, in order,
// from its buffer.
func TestServeConnPipelinedFrames(t *testing.T) {
	server, client := servePipe(t, Config{Seed: 27}, unit.Microsecond)
	var burst []byte
	const n = 3
	for id := uint64(1); id <= n; id++ {
		a := 2 * int(id)
		burst = AppendFrame(burst, EncodeRequest(Request{ID: id, Op: OpEstablish, A: a, B: a + 1, Width: 1}))
	}
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	var fio frameIO
	circuits := map[int]bool{}
	for id := uint64(1); id <= n; id++ {
		payload, err := fio.read(client)
		if err != nil {
			t.Fatalf("response %d: %v", id, err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || resp.Status != StatusOK || circuits[resp.Circuit] {
			t.Fatalf("response %d of the burst: %+v (circuits so far %v)", id, resp, circuits)
		}
		circuits[resp.Circuit] = true
	}
	if got := server.reads.Load(); got != 1 {
		t.Fatalf("server read the %d-frame burst in %d reads, want 1", n, got)
	}
}

// TestClientCallWarmAllocatesNothing pins a warm exchange's
// allocations, counting both ends (the server runs in this process). A
// release answered OK and an establish shed as Overloaded — whose
// detail the client shares with the previous response instead of
// copying — allocate nothing. An establish answered OK allocates
// exactly one object: the route.Circuit record the allocator keeps for
// the granted circuit, which is fabric state, not wire cost.
func TestClientCallWarmAllocatesNothing(t *testing.T) {
	const runs = 20
	call := func(t *testing.T, c *Client, req Request, want Status) Response {
		resp, err := c.Call(req)
		if err != nil || resp.Status != want {
			t.Fatalf("%s: %+v, %v; want %s", req.Op, resp, err, want)
		}
		return resp
	}
	check := func(t *testing.T, want float64, run func()) {
		if allocs := testing.AllocsPerRun(runs, run); allocs != want {
			t.Fatalf("warm call allocates %v times, want %v", allocs, want)
		}
	}
	establish := func(i int) Request { return Request{Op: OpEstablish, A: 2 * i, B: 2*i + 1, Width: 1} }
	t.Run("release", func(t *testing.T) {
		_, client := servePipe(t, Config{Seed: 28}, unit.Microsecond)
		c := NewClient(client)
		var held []int
		for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up run
			held = append(held, call(t, c, establish(i), StatusOK).Circuit)
		}
		check(t, 0, func() {
			call(t, c, Request{Op: OpRelease, Circuit: held[0]}, StatusOK)
			held = held[1:]
		})
	})
	t.Run("establish", func(t *testing.T) {
		_, client := servePipe(t, Config{Seed: 28}, unit.Microsecond)
		c := NewClient(client)
		check(t, 1, func() {
			resp := call(t, c, establish(2), StatusOK)
			call(t, c, Request{Op: OpRelease, Circuit: resp.Circuit}, StatusOK)
		})
	})
	t.Run("overloaded", func(t *testing.T) {
		// A zero tick lands every request on one virtual instant, so
		// once QueueCap establishes are admitted every later one is shed.
		const queueCap = 4
		_, client := servePipe(t, Config{Seed: 29, QueueCap: queueCap}, 0)
		c := NewClient(client)
		for i := 0; i < queueCap; i++ {
			call(t, c, establish(i), StatusOK)
		}
		check(t, 0, func() { call(t, c, establish(0), StatusOverloaded) })
	})
}
