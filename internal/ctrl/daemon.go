package ctrl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"lightpath/internal/chaos"
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

	// Optional durability: when ckptEvery > 0, every ckptEvery-th
	// request snapshots the server to ckptPath at the request boundary.
	ckptPath  string
	ckptEvery uint64
	requests  uint64
	ckptErr   error
}

// NewHandler wraps a server. Each submitted request arrives `tick`
// simulated seconds after the previous one; a zero tick lands every
// request on the same virtual instant, which engages the bounded
// queue and shedding under bursts (useful for overload drills).
func NewHandler(srv *Server, tick unit.Seconds) *Handler {
	return &Handler{srv: srv, tick: tick, arrival: srv.Clock()}
}

// SetCheckpoint arms periodic durability: every `every`-th request the
// handler snapshots the server to path. The first write failure is
// latched (see CheckpointErr) and disarms further attempts so a full
// disk degrades durability, not service.
func (h *Handler) SetCheckpoint(path string, every uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ckptPath = path
	h.ckptEvery = every
}

// CheckpointErr reports the latched periodic-checkpoint failure, if any.
func (h *Handler) CheckpointErr() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ckptErr
}

// Submit runs one request through the server at the next logical
// arrival instant.
func (h *Handler) Submit(req Request) Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	resp, _ := h.srv.Submit(req, h.arrival)
	h.arrival += h.tick
	h.requests++
	if h.ckptEvery > 0 && h.requests%h.ckptEvery == 0 {
		if err := h.srv.SaveCheckpoint(h.ckptPath); err != nil {
			h.ckptErr = err
			h.ckptEvery = 0
		}
	}
	return resp
}

// ApplyFault injects a fabric fault at the current logical instant and
// reroutes the circuits it broke.
func (h *Handler) ApplyFault(f chaos.Fault) (FaultReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv.ApplyFault(f, h.arrival)
}

// Checkpoint writes the server's state to path at a request boundary.
func (h *Handler) Checkpoint(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv.SaveCheckpoint(path)
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
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriter) *Client { return &Client{conn: conn} }

// Call sends one request and reads its response. Transport and frame
// failures surface as errors; server-side rejections surface in the
// response (use Response.Err to fold them into the error taxonomy).
func (c *Client) Call(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	req.ID = c.next
	c.fio.enc.Reset()
	EncodeRequestTo(&c.fio.enc, req)
	if err := c.fio.write(c.conn); err != nil {
		return Response{}, err
	}
	payload, err := c.fio.read(c.conn)
	if err != nil {
		return Response{}, err
	}
	resp, err := decodeResponse(payload, c.detail)
	if err != nil {
		return Response{}, err
	}
	if resp.ID != req.ID {
		return Response{}, fmt.Errorf("%w: response id %d for request %d", ErrBadFrame, resp.ID, req.ID)
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

// Release tears down a circuit by ID.
func (c *Client) Release(circuit int) error {
	resp, err := c.Call(Request{Op: OpRelease, Circuit: circuit})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Reroute asks the controller to move a circuit onto surviving
// resources, degrading width if it must.
func (c *Client) Reroute(circuit int, deadline unit.Seconds) (Response, error) {
	resp, err := c.Call(Request{Op: OpReroute, Circuit: circuit, Deadline: deadline})
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
