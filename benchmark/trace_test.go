package benchmark

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lightpath/internal/ctrl"
)

// This file is the traced run's instrumentation, all of it outside the
// program: a net.Conn wrapper that finds frame boundaries in the byte
// stream, a recorder of request/response exchanges for replay, and a
// window over the runtime's counters and CPU profile.

// captureCap bounds how many exchanges a traced run keeps for replay.
const captureCap = 20_000

// exchange is one request payload and the response payload the server
// answered it with.
type exchange struct{ req, resp []byte }

// recorder collects what the timedConns on one daemon see. Counters are
// atomic because every connection goroutine updates them.
type recorder struct {
	reads, writes atomic.Int64 // Read and Write calls on every wrapped conn
	frames        atomic.Int64 // request frames answered by the server
	handleNs      atomic.Int64 // frame complete -> response write starts
	writeNs       atomic.Int64 // duration of the response writes

	mu       sync.Mutex
	captured []exchange // in the order the server answered
	limit    int
}

func newRecorder(limit int) *recorder { return &recorder{limit: limit} }

// counters is a snapshot of a recorder's counters.
type counters struct{ reads, writes, frames, handleNs, writeNs int64 }

func (r *recorder) snapshot() counters {
	return counters{r.reads.Load(), r.writes.Load(), r.frames.Load(), r.handleNs.Load(), r.writeNs.Load()}
}

func (c counters) minus(o counters) counters {
	return counters{c.reads - o.reads, c.writes - o.writes, c.frames - o.frames, c.handleNs - o.handleNs, c.writeNs - o.writeNs}
}

// answered records one server-side exchange.
func (r *recorder) answered(handle, write time.Duration, req, resp []byte) {
	r.frames.Add(1)
	r.handleNs.Add(int64(handle))
	r.writeNs.Add(int64(write))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.captured) < r.limit {
		r.captured = append(r.captured, exchange{
			req:  append([]byte(nil), req...),
			resp: append([]byte(nil), resp...),
		})
	}
}

// exchanges returns the captured exchanges.
func (r *recorder) exchanges() []exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captured
}

// wrapClient counts the client side's Read and Write calls.
func (r *recorder) wrapClient(c net.Conn) net.Conn { return &timedConn{Conn: c, rec: r} }

// frameScanner follows length-prefixed frame boundaries (4-byte
// little-endian length, then payload) across reads that split a frame
// or coalesce several.
type frameScanner struct {
	hdr     [4]byte
	nhdr    int
	left    int // payload bytes still to come once nhdr == 4
	payload []byte
}

// frameSink receives each payload a frameScanner completes; the payload
// is only valid during the call.
type frameSink interface{ frameDone(payload []byte) }

// feed consumes b, handing each payload it completes to sink.
func (s *frameScanner) feed(b []byte, sink frameSink) {
	for len(b) > 0 {
		if s.nhdr < len(s.hdr) {
			k := copy(s.hdr[s.nhdr:], b)
			s.nhdr += k
			b = b[k:]
			if s.nhdr < len(s.hdr) {
				return
			}
			s.left = int(binary.LittleEndian.Uint32(s.hdr[:]))
			s.payload = s.payload[:0]
		} else {
			k := min(s.left, len(b))
			s.payload = append(s.payload, b[:k]...)
			s.left -= k
			b = b[k:]
		}
		if s.left == 0 {
			sink.frameDone(s.payload)
			s.nhdr = 0
		}
	}
}

// timedConn wraps one connection. Every Read and Write call is counted;
// on the server side it also notes when a request frame is complete
// and times the response write, which splits the server's share of a
// call into handling (decode, Handler.Submit with its lock wait,
// encode) and writing.
type timedConn struct {
	net.Conn
	rec    *recorder
	server bool

	scan    frameScanner
	frameAt time.Time // when the request being answered completed
	req     []byte    // its payload
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rec.reads.Add(1)
	if c.server && n > 0 {
		c.scan.feed(p[:n], c)
	}
	return n, err
}

func (c *timedConn) frameDone(payload []byte) {
	c.frameAt = time.Now()
	c.req = append(c.req[:0], payload...)
}

func (c *timedConn) Write(p []byte) (int, error) {
	if !c.server {
		c.rec.writes.Add(1)
		return c.Conn.Write(p)
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.rec.writes.Add(1)
	if len(p) >= len(c.scan.hdr) {
		c.rec.answered(start.Sub(c.frameAt), end.Sub(start), c.req, p[len(c.scan.hdr):])
	}
	return n, err
}

// serveTraced is Handler.Serve with every accepted connection wrapped
// in a server-side timedConn.
func serveTraced(h *ctrl.Handler, ln net.Listener, rec *recorder) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = h.ServeConn(&timedConn{Conn: c, rec: rec, server: true}) // a failed conn only ends itself
		}()
	}
}

// traceWindow spans the timed rounds of a traced run: recorder
// counters, allocation and GC counts, and (when profiling) a CPU
// profile.
type traceWindow struct {
	rec     *recorder
	start   counters
	mem     runtime.MemStats
	dir     string
	profile *os.File
}

// serveTrace is what a traceWindow measured.
type serveTrace struct {
	net     counters
	mallocs uint64
	gcs     uint32
	rssMB   float64            // peak resident set when the window closed
	gcP99   time.Duration      // p99 of the recent GC pauses then
	shares  map[string]float64 // CPU share per layer; nil when not profiling
}

func startTraceWindow(rec *recorder, profile bool) (*traceWindow, error) {
	w := &traceWindow{rec: rec}
	if rec != nil {
		w.start = rec.snapshot()
	}
	if profile {
		dir, err := os.MkdirTemp("", "lightpath-bench-prof-")
		if err != nil {
			return nil, err
		}
		w.dir = dir
		f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return nil, errors.Join(err, os.RemoveAll(dir))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, errors.Join(err, f.Close(), os.RemoveAll(dir))
		}
		w.profile = f
	}
	runtime.ReadMemStats(&w.mem)
	return w, nil
}

func (w *traceWindow) stop() (*serveTrace, error) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	t := &serveTrace{mallocs: mem.Mallocs - w.mem.Mallocs, gcs: mem.NumGC - w.mem.NumGC, rssMB: rss, gcP99: gcPauseP99(&mem)}
	if w.rec != nil {
		t.net = w.rec.snapshot().minus(w.start)
	}
	if w.profile == nil {
		return t, nil
	}
	pprof.StopCPUProfile()
	defer func() { _ = os.RemoveAll(w.dir) }()
	if err := w.profile.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares, err := profileShares(w.profile.Name())
	if err != nil {
		return nil, err
	}
	t.shares = shares
	return t, nil
}

// gcPauseP99 returns the 99th percentile of the most recent (at most
// 256) stop-the-world GC pauses mem records.
func gcPauseP99(mem *runtime.MemStats) time.Duration {
	n := min(int(mem.NumGC), len(mem.PauseNs))
	pauses := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, time.Duration(mem.PauseNs[(int(mem.NumGC)-1-i)%len(mem.PauseNs)]))
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return percentile(pauses, 0.99)
}

// timeEach runs fn passes times and returns the fast quartile (lower
// quartile) of its durations.
func timeEach(passes int, fn func()) time.Duration {
	var ds []float64
	for i := 0; i < passes; i++ {
		start := time.Now()
		fn()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(fastQuartile(ds, false))
}
