package ctrl

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// TestWireRoundTrip pushes seeded random requests and responses
// through encode -> frame -> buffered read -> decode and demands exact
// reconstruction.
func TestWireRoundTrip(t *testing.T) {
	r := rng.New(99)
	var buf bytes.Buffer
	var fio frameIO // one reader across every frame, as on a connection
	for i := 0; i < 500; i++ {
		req := Request{
			ID:       r.Uint64(),
			Op:       Op(r.Intn(int(numOps))),
			A:        r.Intn(64),
			B:        r.Intn(64),
			Width:    1 + r.Intn(16),
			Circuit:  r.Intn(1000) - 1,
			Deadline: unit.Seconds(r.Float64()) * unit.Millisecond,
		}
		if err := WriteFrame(&buf, EncodeRequest(req)); err != nil {
			t.Fatal(err)
		}
		payload, err := fio.read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("request round trip: got %+v, want %+v", got, req)
		}

		resp := Response{
			ID:       r.Uint64(),
			Status:   Status(r.Intn(int(numStatuses))),
			Circuit:  r.Intn(1000),
			Width:    r.Intn(16),
			Degraded: r.Intn(2) == 0,
			Detail:   "detail-string with spaces",
			Queue:    r.Intn(512),
			Circuits: r.Intn(512),
		}
		for j := r.Intn(4); j > 0; j-- {
			resp.Regions = append(resp.Regions, RegionHealth{
				State: BreakerState(r.Intn(3)), Trips: r.Intn(9),
			})
		}
		buf.Reset()
		if err := WriteFrame(&buf, EncodeResponse(resp)); err != nil {
			t.Fatal(err)
		}
		payload, err = fio.read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotR, resp) {
			t.Fatalf("response round trip: got %+v, want %+v", gotR, resp)
		}
	}
}

// TestWireMalformed drives the decoders with hostile inputs: every one
// must come back as a wrapped ErrBadFrame, never a panic and never a
// zero-error success.
func TestWireMalformed(t *testing.T) {
	valid := EncodeRequest(Request{ID: 7, Op: OpEstablish, A: 1, B: 2, Width: 4})
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)-3],
		"trailing junk":  append(append([]byte{}, valid...), 0xaa, 0xbb),
		"unknown op":     EncodeRequest(Request{Op: numOps + 3}),
		"negative op":    EncodeRequest(Request{Op: -2}),
		"random garbage": {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("request %s: error %v does not wrap ErrBadFrame", name, err)
		}
	}

	validResp := EncodeResponse(Response{Status: StatusOK, Regions: []RegionHealth{{State: BreakerOpen}}})
	respCases := map[string][]byte{
		"empty":          {},
		"truncated":      validResp[:len(validResp)-2],
		"unknown status": EncodeResponse(Response{Status: numStatuses}),
		"bad breaker":    EncodeResponse(Response{Regions: []RegionHealth{{State: 77}}}),
	}
	for name, payload := range respCases {
		if _, err := DecodeResponse(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("response %s: error %v does not wrap ErrBadFrame", name, err)
		}
	}
}

// TestReadFrameHostilePrefix checks the length prefix is validated
// before the buffer grows, and stream endings are classified: clean EOF
// at a frame boundary is io.EOF, everything else wraps ErrBadFrame.
func TestReadFrameHostilePrefix(t *testing.T) {
	read := func(data []byte) error {
		var f frameIO
		_, err := f.read(bytes.NewReader(data))
		return err
	}
	// 4 GiB declared length: must reject from the 4 header bytes alone.
	if err := read([]byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized prefix: %v", err)
	}
	if err := read(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("clean EOF: %v", err)
	}
	if err := read([]byte{0x01, 0x00}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn header: %v", err)
	}
	// Declared 10 payload bytes, delivered 3.
	if err := read([]byte{0x0a, 0x00, 0x00, 0x00, 1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn payload: %v", err)
	}
	// Declared 10, delivered none: torn, never mistaken for a clean end.
	if err := read([]byte{0x0a, 0x00, 0x00, 0x00}); !errors.Is(err, ErrBadFrame) || errors.Is(err, io.EOF) {
		t.Fatalf("header without payload: %v", err)
	}

	// A hostile prefix behind a good frame in the same chunk: the frame
	// is served from the buffer, then the prefix is rejected with
	// neither another Read nor a grown buffer.
	good := EncodeRequest(Request{Op: OpHealth})
	chunk := append(AppendFrame(nil, good), 0xff, 0xff, 0xff, 0xff, 1, 2, 3)
	cr := &countingReader{r: bytes.NewReader(chunk)}
	var f frameIO
	payload, err := f.read(cr)
	if err != nil || !bytes.Equal(payload, good) {
		t.Fatalf("good frame before the hostile prefix: %x, %v", payload, err)
	}
	if _, err := f.read(cr); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("buffered hostile prefix: %v", err)
	}
	if cr.reads != 1 || len(f.rbuf) != readBufSize {
		t.Fatalf("hostile prefix cost %d reads and a %d-byte buffer, want 1 and %d", cr.reads, len(f.rbuf), readBufSize)
	}
}

// TestAppendFramePanicsOversized documents the outbound contract: this
// package never builds frames beyond MaxFrame, so trying is a bug, not
// an error path.
func TestAppendFramePanicsOversized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized outbound frame did not panic")
		}
	}()
	AppendFrame(nil, make([]byte, MaxFrame+1))
}
