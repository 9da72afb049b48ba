package ctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the controller's wire protocol: length-prefixed binary
// frames whose payloads are built with the internal/snapshot primitive
// codec — the same fixed-order, no-reflection discipline the
// checkpoint files use. A frame is a 4-byte little-endian payload
// length followed by the payload; payloads start with a message kind
// and carry a fixed field order per kind. Every decode failure wraps
// ErrBadFrame: a hostile or truncated frame can close a connection,
// never panic it, never hang it, and never drive a giant allocation
// (the length prefix is bounded by MaxFrame before any buffer is
// sized).

// MaxFrame bounds a frame's payload size. Controller messages are tens
// of bytes; anything larger is a corrupt or hostile length prefix and
// is rejected before allocation.
const MaxFrame = 1 << 16

// frameHeaderSize is the length prefix.
const frameHeaderSize = 4

// Op is a request's operation.
type Op int

// Request operations.
const (
	// OpEstablish asks for a new circuit A<->B at Width.
	OpEstablish Op = iota
	// OpRelease tears down the circuit named by Circuit.
	OpRelease
	// OpReroute tears down and re-establishes the circuit named by
	// Circuit over surviving resources, degrading width if needed.
	OpReroute
	// OpHealth asks for the controller's health report.
	OpHealth

	numOps
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpEstablish:
		return "establish"
	case OpRelease:
		return "release"
	case OpReroute:
		return "reroute"
	case OpHealth:
		return "health"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Request is one client request. Which fields are meaningful depends
// on Op: establish uses A/B/Width, release and reroute use Circuit,
// health uses none. ID is an opaque client token echoed in the
// response; Deadline is the request's service budget in simulated
// seconds from arrival (zero means no deadline).
type Request struct {
	ID       uint64
	Op       Op
	A, B     int
	Width    int
	Circuit  int
	Deadline unit.Seconds
}

// Status classifies a response, mirroring the error taxonomy across
// the wire so errors.Is works on both sides of a connection.
type Status int

// Response statuses.
const (
	// StatusOK reports success.
	StatusOK Status = iota
	// StatusOverloaded maps ErrOverloaded.
	StatusOverloaded
	// StatusDeadline maps ErrDeadlineExceeded.
	StatusDeadline
	// StatusBreakerOpen maps ErrBreakerOpen.
	StatusBreakerOpen
	// StatusNoPath maps route.ErrNoPath.
	StatusNoPath
	// StatusEndpointFailed maps route.ErrEndpointFailed.
	StatusEndpointFailed
	// StatusUnknownCircuit maps ErrUnknownCircuit.
	StatusUnknownCircuit
	// StatusBadRequest reports a semantically invalid request (bad
	// width, out-of-range chip, unknown op).
	StatusBadRequest

	numStatuses
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusDeadline:
		return "deadline-exceeded"
	case StatusBreakerOpen:
		return "breaker-open"
	case StatusNoPath:
		return "no-path"
	case StatusEndpointFailed:
		return "endpoint-failed"
	case StatusUnknownCircuit:
		return "unknown-circuit"
	case StatusBadRequest:
		return "bad-request"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// RegionHealth is one fabric region's breaker state in a health
// response.
type RegionHealth struct {
	// State is the breaker's current position.
	State BreakerState
	// Trips counts the breaker's lifetime open transitions.
	Trips int
}

// Response is the server's reply to one Request. ID echoes the
// request's token. For successful establish/reroute, Circuit and
// Width carry the granted circuit and its (possibly degraded) width.
// Health responses populate Queue, Circuits and Regions.
type Response struct {
	ID       uint64
	Status   Status
	Circuit  int
	Width    int
	Degraded bool
	Detail   string
	Queue    int
	Circuits int
	Regions  []RegionHealth
}

// Err maps the response's status back to the package's error taxonomy:
// nil for StatusOK, and otherwise an error wrapping the corresponding
// sentinel with the response's detail text — so a client-side
// errors.Is sees exactly the sentinel the server-side failure carried.
func (r Response) Err() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusOverloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, r.Detail)
	case StatusDeadline:
		return fmt.Errorf("%w: %s", ErrDeadlineExceeded, r.Detail)
	case StatusBreakerOpen:
		return fmt.Errorf("%w: %s", ErrBreakerOpen, r.Detail)
	case StatusUnknownCircuit:
		return fmt.Errorf("%w: %s", ErrUnknownCircuit, r.Detail)
	default:
		return fmt.Errorf("ctrl: %s: %s", r.Status, r.Detail)
	}
}

// EncodeRequest serializes a request payload.
func EncodeRequest(req Request) []byte {
	var e snapshot.Encoder
	EncodeRequestTo(&e, req)
	return e.Bytes()
}

// EncodeRequestTo appends the request payload to e. Long-lived callers
// (the client's call loop) Reset and reuse one encoder so steady-state
// encoding allocates nothing.
func EncodeRequestTo(e *snapshot.Encoder, req Request) {
	e.U64(req.ID)
	e.Int(int(req.Op))
	e.Int(req.A)
	e.Int(req.B)
	e.Int(req.Width)
	e.Int(req.Circuit)
	snapshot.Unit(e, req.Deadline)
}

// DecodeRequest parses a request payload. Malformed payloads return an
// error wrapping ErrBadFrame.
func DecodeRequest(payload []byte) (Request, error) {
	d := snapshot.NewDecoder(payload)
	req := Request{
		ID:      d.U64(),
		Op:      Op(d.Int()),
		A:       d.Int(),
		B:       d.Int(),
		Width:   d.Int(),
		Circuit: d.Int(),
	}
	req.Deadline = snapshot.DecodeUnit[unit.Seconds](d)
	if err := d.Finish(); err != nil {
		return Request{}, fmt.Errorf("%w: request: %w", ErrBadFrame, err)
	}
	if req.Op < 0 || req.Op >= numOps {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadFrame, int(req.Op))
	}
	return req, nil
}

// EncodeResponse serializes a response payload.
func EncodeResponse(resp Response) []byte {
	var e snapshot.Encoder
	EncodeResponseTo(&e, resp)
	return e.Bytes()
}

// EncodeResponseTo appends the response payload to e. Long-lived
// callers (the handler's serve loop) Reset and reuse one encoder so
// steady-state encoding allocates nothing.
func EncodeResponseTo(e *snapshot.Encoder, resp Response) {
	e.U64(resp.ID)
	e.Int(int(resp.Status))
	e.Int(resp.Circuit)
	e.Int(resp.Width)
	e.Bool(resp.Degraded)
	e.String(resp.Detail)
	e.Int(resp.Queue)
	e.Int(resp.Circuits)
	e.Len(len(resp.Regions))
	for _, rg := range resp.Regions {
		e.Int(int(rg.State))
		e.Int(rg.Trips)
	}
}

// DecodeResponse parses a response payload. Malformed payloads return
// an error wrapping ErrBadFrame.
func DecodeResponse(payload []byte) (Response, error) {
	return decodeResponse(payload, "")
}

// decodeResponse is DecodeResponse for a caller that decodes a stream
// of responses: when the detail bytes spell prevDetail, the response
// shares that string instead of allocating a copy, so a client shed
// again and again with the same message decodes without allocating.
func decodeResponse(payload []byte, prevDetail string) (Response, error) {
	d := snapshot.NewDecoder(payload)
	resp := Response{
		ID:       d.U64(),
		Status:   Status(d.Int()),
		Circuit:  d.Int(),
		Width:    d.Int(),
		Degraded: d.Bool(),
		Detail:   sameString(d.StringBytes(), prevDetail),
		Queue:    d.Int(),
		Circuits: d.Int(),
	}
	n := d.Len()
	for i := 0; i < n; i++ {
		resp.Regions = append(resp.Regions, RegionHealth{
			State: BreakerState(d.Int()),
			Trips: d.Int(),
		})
	}
	if err := d.Finish(); err != nil {
		return Response{}, fmt.Errorf("%w: response: %w", ErrBadFrame, err)
	}
	if resp.Status < 0 || resp.Status >= numStatuses {
		return Response{}, fmt.Errorf("%w: unknown status %d", ErrBadFrame, int(resp.Status))
	}
	for _, rg := range resp.Regions {
		if rg.State < BreakerClosed || rg.State > BreakerHalfOpen {
			return Response{}, fmt.Errorf("%w: unknown breaker state %d", ErrBadFrame, int(rg.State))
		}
	}
	return resp, nil
}

// sameString returns prev when b spells it, and a fresh string of b
// otherwise. The comparison converts b without allocating.
func sameString(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// readBufSize is a connection's initial read buffer: room for several
// controller frames, so frames that arrive together are read together.
const readBufSize = 512

// frameIO is one connection's reusable wire-I/O state: a buffered
// frame reader, a payload encoder, and a frame write buffer. The zero
// value is ready; each buffer settles at the largest frame the
// connection has seen and is reused thereafter.
type frameIO struct {
	// rbuf[r:w] holds bytes read from the connection but not yet
	// returned in a frame. rerr is a read error that arrived together
	// with data; it is reported once that data is used up.
	rbuf []byte
	r, w int
	rerr error

	enc   snapshot.Encoder
	frame []byte
}

// read returns the next frame's payload, which aliases the read buffer
// and is valid until the next read call. It calls r.Read only when less
// than a whole frame is buffered, and keeps the bytes after the frame
// for the next call, so pipelined frames cost no further reads. io.EOF
// means the stream ended at a frame boundary with nothing buffered. A
// torn header or payload, or a length prefix beyond MaxFrame, wraps
// ErrBadFrame; the prefix is checked from the four header bytes before
// the buffer grows, so the buffer never exceeds MaxFrame plus the
// header.
func (f *frameIO) read(r io.Reader) ([]byte, error) {
	if err := f.fill(r, frameHeaderSize); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %w", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(f.rbuf[f.r:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d exceeds MaxFrame %d", ErrBadFrame, n, MaxFrame)
	}
	size := frameHeaderSize + int(n)
	if err := f.fill(r, size); err != nil {
		return nil, fmt.Errorf("%w: truncated payload (%d declared): %w", ErrBadFrame, n, err)
	}
	payload := f.rbuf[f.r+frameHeaderSize : f.r+size]
	f.r += size
	return payload, nil
}

// fill makes at least need bytes available at rbuf[r:]. Before reading
// it slides the unread bytes to the front of the buffer, so each Read
// gets all the room there is; the buffer is allocated on first use and
// grows to exactly need only when a frame is larger than the whole
// buffer. A stream that ends short returns io.EOF if nothing was
// buffered and io.ErrUnexpectedEOF otherwise.
func (f *frameIO) fill(r io.Reader, need int) error {
	if f.w-f.r >= need {
		return nil
	}
	buf := f.rbuf
	if need > len(buf) {
		buf = make([]byte, max(need, readBufSize))
	}
	f.w = copy(buf, f.rbuf[f.r:f.w])
	f.r = 0
	f.rbuf = buf
	for f.w < need {
		if err := f.rerr; err != nil {
			f.rerr = nil
			if errors.Is(err, io.EOF) && f.w > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		var m int
		m, f.rerr = r.Read(buf[f.w:])
		f.w += m
	}
	return nil
}

// write frames the encoder's current payload and writes it in one call.
func (f *frameIO) write(w io.Writer) error {
	f.frame = AppendFrame(f.frame[:0], f.enc.Bytes())
	if _, err := w.Write(f.frame); err != nil {
		return fmt.Errorf("ctrl: write frame: %w", err)
	}
	return nil
}

// AppendFrame appends a length-prefixed frame carrying the payload.
// It panics if the payload exceeds MaxFrame — outbound frames are
// built by this package and can never legitimately be that large.
func AppendFrame(dst, payload []byte) []byte {
	if len(payload) > MaxFrame {
		panic(fmt.Sprintf("ctrl: outbound frame payload %d exceeds MaxFrame", len(payload)))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// WriteFrame writes one length-prefixed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := AppendFrame(make([]byte, 0, frameHeaderSize+len(payload)), payload)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("ctrl: write frame: %w", err)
	}
	return nil
}
