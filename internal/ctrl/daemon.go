package ctrl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"lightpath/internal/chaos"
	"lightpath/internal/evloop"
	"lightpath/internal/unit"
)

// This file is the controller's transport: a Handler that serializes
// concurrent connections onto the single-threaded Server core, and a
// Client that speaks the frame protocol from the other end. The live
// daemon runs on logical time — each arrival advances the virtual
// clock by a fixed tick — so the deployed binary exercises exactly the
// semantics the deterministic load campaign validated, without ever
// reading the wall clock.

// Handler owns a Server and makes it safe for concurrent connections.
// All mutation funnels through one mutex, matching the allocator's
// single-writer requirement; the frame protocol below it is already
// request/response, so per-request locking preserves linearizability.
type Handler struct {
	mu      sync.Mutex
	srv     *Server
	tick    unit.Seconds
	arrival unit.Seconds
	loop    *evloop.Loop // one boundary per request; its count is not checkpointed
	ckptErr error        // the first checkpoint write failure
}

// checkpointEvery is SetCheckpoint's cadence in requests when given zero.
const checkpointEvery = 4096

// NewHandler wraps a server. Each submitted request arrives `tick`
// simulated seconds after the previous one; a zero tick lands every
// request on the same virtual instant, which engages the bounded
// queue and shedding under bursts (useful for overload drills).
func NewHandler(srv *Server, tick unit.Seconds) *Handler {
	l := evloop.New(evloop.Options{}, CheckpointVersion, checkpointEvery)
	return &Handler{srv: srv, tick: tick, arrival: srv.Clock(), loop: l}
}

// SetCheckpoint arms periodic durability: every `every`-th request the
// server's state is encoded at the boundary and written to path in the
// background, after the replaced loop's write in flight has landed. A
// failed write costs durability, not service; the next boundary on the
// cadence tries again, and Flush reports the first failure.
func (h *Handler) SetCheckpoint(path string, every uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.keepErr(h.loop.Flush())
	h.loop = evloop.New(evloop.Options{Path: path, EveryEvents: every}, CheckpointVersion, checkpointEvery)
}

// Flush waits for the checkpoint write in flight, if any, and returns
// the first checkpoint write error the handler has seen.
func (h *Handler) Flush() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.keepErr(h.loop.Flush())
	return h.ckptErr
}

// keepErr records the handler's first checkpoint write failure.
func (h *Handler) keepErr(err error) {
	if h.ckptErr == nil {
		h.ckptErr = err
	}
}

// Submit runs one request through the server at the next logical
// arrival instant.
func (h *Handler) Submit(req Request) Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	resp, _ := h.srv.Submit(req, h.arrival)
	h.arrival += h.tick
	h.keepErr(h.loop.Tick(h.srv.EncodeState))
	return resp
}

// ApplyFault injects a fabric fault at the current logical instant and
// reroutes the circuits it broke.
func (h *Handler) ApplyFault(f chaos.Fault) ([]CircuitMove, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv.ApplyFault(f, h.arrival)
}

// Stats returns a copy of the server's counters.
func (h *Handler) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv.Stats()
}

// ServeConn answers frames on one connection until the peer closes it
// (returns nil) or a frame fails to parse (closes the connection and
// returns the ErrBadFrame-wrapped cause: a hostile peer costs one
// connection, never a wedged controller).
//
// Hot-marked: this loop runs once per request for a connection's whole
// lifetime, so all wire I/O must go through the connection's frameIO
// scratch rather than fresh buffers.
//
//lightpath:hotloop
func (h *Handler) ServeConn(conn net.Conn) error {
	defer func() { _ = conn.Close() }()
	// Per-connection I/O state: the read buffer, payload encoder and
	// frame buffer are threaded through every iteration, so a settled
	// connection serves requests without allocating.
	var fio frameIO
	for {
		payload, err := fio.read(conn)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			return err
		}
		resp := h.Submit(req)
		fio.enc.Reset()
		EncodeResponseTo(&fio.enc, resp)
		if err := fio.write(conn); err != nil {
			return err
		}
	}
}

// Serve accepts connections until the listener closes, answering each
// connection on its own goroutine. It returns nil when the listener
// shuts down.
func (h *Handler) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ctrl: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = h.ServeConn(conn) // a bad peer only costs its own conn
		}()
	}
}

// Client speaks the controller protocol over one connection. It is
// safe for concurrent use; calls are serialized on the wire.
type Client struct {
	mu     sync.Mutex
	conn   io.ReadWriter
	next   uint64
	fio    frameIO // reusable wire buffers, guarded by mu
	detail string  // the last response's Detail, shared by a next one that matches
	// broken is the first error that left the stream out of step: a
	// failed write or read, or a response for another request. Every
	// later Call returns it without touching the connection.
	broken error
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriter) *Client { return &Client{conn: conn} }

// Call sends one request and reads its response. Transport and frame
// failures surface as errors; server-side rejections surface in the
// response (use Response.Err to fold them into the error taxonomy).
// A transport failure or a response for another request breaks the
// client: the next response on the stream may belong to the failed
// request, so that call and every later one return the first such
// error without writing.
func (c *Client) Call(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return Response{}, c.broken
	}
	c.next++
	req.ID = c.next
	c.fio.enc.Reset()
	EncodeRequestTo(&c.fio.enc, req)
	if err := c.fio.write(c.conn); err != nil {
		c.broken = err
		return Response{}, err
	}
	payload, err := c.fio.read(c.conn)
	if err != nil {
		c.broken = err
		return Response{}, err
	}
	resp, err := decodeResponse(payload, c.detail)
	if err != nil {
		return Response{}, err
	}
	if resp.ID != req.ID {
		c.broken = fmt.Errorf("%w: response id %d for request %d", ErrBadFrame, resp.ID, req.ID)
		return Response{}, c.broken
	}
	c.detail = resp.Detail
	return resp, nil
}

// Establish requests a circuit A<->B at width and returns the granted
// response; a non-OK status comes back as its taxonomy error.
func (c *Client) Establish(a, b, width int, deadline unit.Seconds) (Response, error) {
	resp, err := c.Call(Request{Op: OpEstablish, A: a, B: b, Width: width, Deadline: deadline})
	if err != nil {
		return resp, err
	}
	return resp, resp.Err()
}

// Health fetches the controller's health report.
func (c *Client) Health() (Response, error) {
	resp, err := c.Call(Request{Op: OpHealth})
	if err != nil {
		return resp, err
	}
	return resp, resp.Err()
}
