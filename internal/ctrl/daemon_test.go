package ctrl

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"lightpath/internal/snapshot"
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
	if est.Width != 2 {
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
	rr, err := c.Call(Request{Op: OpReroute, Circuit: est.Circuit, Deadline: unit.Millisecond})
	if err == nil {
		err = rr.Err()
	}
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
	cfg := Config{Seed: 22, QueueCap: 4096}
	h, dial := newTestHandler(t, cfg, 500*unit.Nanosecond)
	// A small cadence puts background checkpoint writes under the
	// concurrent Submits.
	path := filepath.Join(t.TempDir(), "concurrent.ckpt")
	h.SetCheckpoint(path, 16)

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
	if err := h.Flush(); err != nil {
		t.Fatalf("periodic checkpoint: %v", err)
	}
	if _, err := LoadCheckpoint(cfg, path); err != nil {
		t.Fatalf("restore of the last periodic checkpoint: %v", err)
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

// TestHandlerPeriodicCheckpoint pins the daemon's periodic
// checkpoints, which run through the handler's evloop.Loop: what lands
// on disk, what a failed write does, re-arming mid-write, the default
// cadence, and the hot path's allocations.
func TestHandlerPeriodicCheckpoint(t *testing.T) {
	cfg := Config{Seed: 25}
	newHandler := func(t *testing.T) (*Handler, *Server) {
		t.Helper()
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewHandler(s, unit.Microsecond), s
	}
	req := func(i int) Request {
		if i%3 == 2 {
			return Request{Op: OpHealth}
		}
		return Request{Op: OpEstablish, A: i % 4, B: 30 + i%4, Width: 1}
	}
	submitOK := func(t *testing.T, h *Handler, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if resp := h.Submit(req(i)); resp.Status != StatusOK {
				t.Fatalf("request %d answered %+v", i, resp)
			}
		}
	}
	restoresTo := func(t *testing.T, path string, want Stats) {
		t.Helper()
		r, err := LoadCheckpoint(cfg, path)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if r.Stats() != want {
			t.Fatalf("checkpoint restored stats %+v, want %+v", r.Stats(), want)
		}
	}

	// The file after N requests is the sealed EncodeState of a twin
	// server given the same requests at the same arrivals, and its
	// rotation holds the boundary before.
	t.Run("byte identity", func(t *testing.T) {
		h, _ := newHandler(t)
		twin, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "periodic.ckpt")
		const every = 8
		h.SetCheckpoint(path, every)
		at := twin.Clock()
		var seal [2][]byte
		for i := 0; i < 2*every; i++ {
			h.Submit(req(i))
			twin.Submit(req(i), at)
			at += unit.Microsecond
			if (i+1)%every == 0 {
				var e snapshot.Encoder
				twin.EncodeState(&e)
				seal[i/every] = snapshot.Seal(CheckpointVersion, e.Bytes())
			}
		}
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		for k, p := range []string{snapshot.PrevPath(path), path} {
			got, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, seal[k]) {
				t.Fatalf("%s: %d bytes differ from the twin's checkpoint at request %d (%d bytes)",
					p, len(got), (k+1)*every, len(seal[k]))
			}
		}
	})

	// An unwritable path costs durability, not service, and does not
	// disarm: once the directory exists the next boundary writes.
	t.Run("failure", func(t *testing.T) {
		h, s := newHandler(t)
		blocker := filepath.Join(t.TempDir(), "blocker")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(blocker, "ckpt", "d.ckpt")
		h.SetCheckpoint(path, 4)
		// Request 8's boundary collects request 4's failure and writes
		// (and fails) again.
		submitOK(t, h, 0, 8)
		if err := h.Flush(); !errors.Is(err, syscall.ENOTDIR) {
			t.Fatalf("Flush after failed writes: %v, want ENOTDIR", err)
		}
		if err := os.Remove(blocker); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		submitOK(t, h, 8, 12)
		if err := h.Flush(); !errors.Is(err, syscall.ENOTDIR) {
			t.Fatalf("Flush after recovery: %v, want the first failure still reported", err)
		}
		restoresTo(t, path, s.Stats())
	})

	// Re-arming flushes the loop it replaces: the write in flight lands
	// and its error is kept.
	t.Run("re-arm", func(t *testing.T) {
		h, s := newHandler(t)
		dir := t.TempDir()
		first := filepath.Join(dir, "first.ckpt")
		h.SetCheckpoint(first, 1)
		submitOK(t, h, 0, 1)
		h.SetCheckpoint(filepath.Join(dir, "no-such-dir", "d.ckpt"), 1)
		restoresTo(t, first, s.Stats())
		submitOK(t, h, 1, 2)
		h.SetCheckpoint(filepath.Join(dir, "second.ckpt"), 1)
		if err := h.Flush(); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Flush after re-arming over a failed write: %v, want its not-exist error", err)
		}
	})

	// A zero cadence takes the default, one checkpoint per 4096
	// requests, instead of dividing by zero.
	t.Run("default cadence", func(t *testing.T) {
		h, s := newHandler(t)
		path := filepath.Join(t.TempDir(), "default.ckpt")
		h.SetCheckpoint(path, 0)
		for i := 1; i < 4096; i++ {
			h.Submit(Request{Op: OpHealth})
		}
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("checkpoint before request 4096: %v", err)
		}
		h.Submit(Request{Op: OpHealth})
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		restoresTo(t, path, s.Stats())
	})

	// Submit allocates nothing unarmed or between armed boundaries.
	t.Run("allocs", func(t *testing.T) {
		h, _ := newHandler(t)
		health := func() { h.Submit(Request{Op: OpHealth}) }
		health()
		if n := testing.AllocsPerRun(100, health); n != 0 {
			t.Fatalf("unarmed Submit allocates %v times, want 0", n)
		}
		h.SetCheckpoint(filepath.Join(t.TempDir(), "rare.ckpt"), 1<<20)
		if n := testing.AllocsPerRun(100, health); n != 0 {
			t.Fatalf("armed Submit between boundaries allocates %v times, want 0", n)
		}
	})
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
		burst = AppendFrame(burst, requestBytes(Request{ID: id, Op: OpEstablish, A: a, B: a + 1, Width: 1}))
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

// lateConn is a client connection whose server answers late: the
// first Read fails with a deadline error, and later Reads deliver the
// frames queued in late. It counts the Writes made on it.
type lateConn struct {
	writes   int
	timedOut bool
	late     []byte
}

func (c *lateConn) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

func (c *lateConn) Read(p []byte) (int, error) {
	if !c.timedOut {
		c.timedOut = true
		return 0, os.ErrDeadlineExceeded
	}
	n := copy(p, c.late)
	c.late = c.late[n:]
	return n, nil
}

// TestClientBrokenAfterTransportError pins that a failed exchange
// breaks the client. After a read deadline fires, the stream's next
// frame is the timed-out request's response, so a later Call must
// return the first error without writing rather than read that stale
// response as its own.
func TestClientBrokenAfterTransportError(t *testing.T) {
	conn := &lateConn{late: AppendFrame(nil, responseBytes(Response{ID: 1, Status: StatusOK, Circuit: 7}))}
	c := NewClient(conn)
	req := Request{Op: OpEstablish, A: 2, B: 17, Width: 1}
	_, first := c.Call(req)
	if !errors.Is(first, os.ErrDeadlineExceeded) {
		t.Fatalf("first call: %v, want a deadline error", first)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Call(req); err != first {
			t.Fatalf("call %d after the timeout: %v, want the first error %v", i+2, err, first)
		}
	}
	if conn.writes != 1 {
		t.Fatalf("%d writes, want 1: a broken client must not write", conn.writes)
	}

	// A response for another request breaks the client the same way.
	conn = &lateConn{timedOut: true, late: AppendFrame(nil, responseBytes(Response{ID: 9, Status: StatusOK}))}
	c = NewClient(conn)
	if _, first = c.Call(req); !errors.Is(first, ErrBadFrame) {
		t.Fatalf("mismatched response id: %v, want ErrBadFrame", first)
	}
	if _, err := c.Call(req); err != first || conn.writes != 1 {
		t.Fatalf("call after an id mismatch: %v with %d writes, want %v with 1", err, conn.writes, first)
	}
}

// Release tears down a circuit by ID.
func (c *Client) Release(circuit int) error {
	resp, err := c.Call(Request{Op: OpRelease, Circuit: circuit})
	if err != nil {
		return err
	}
	return resp.Err()
}
