package ctrl

import (
	"bytes"
	"errors"
	"testing"
	"testing/iotest"

	"lightpath/internal/unit"
)

// FuzzCtrlDecode throws arbitrary bytes at every inbound parser the
// daemon exposes to the network: the frame reader and both payload
// decoders. The contract under fuzzing is total: no panic, no hang, no
// unbounded allocation, and every failure classified — the buffered
// frame reader returns io.EOF or wraps ErrBadFrame, exactly as the
// unbuffered reference does, and the decoders wrap ErrBadFrame.
// A request that decodes successfully must re-encode byte-identically
// (request payloads are all fixed-width fields, so the codec has
// exactly one representation; responses carry uvarint-prefixed
// strings, where non-canonical-but-decodable prefixes exist, so they
// only promise classified errors).
func FuzzCtrlDecode(f *testing.F) {
	f.Add(EncodeRequest(Request{ID: 1, Op: OpEstablish, A: 3, B: 9, Width: 2, Deadline: unit.Millisecond}))
	f.Add(EncodeRequest(Request{ID: 2, Op: OpRelease, Circuit: 17}))
	f.Add(EncodeResponse(Response{ID: 3, Status: StatusOK, Circuit: 4, Width: 2}))
	f.Add(EncodeResponse(Response{ID: 4, Status: StatusOverloaded, Detail: "queue 512 full",
		Regions: []RegionHealth{{State: BreakerOpen, Trips: 3}}}))
	f.Add(AppendFrame(nil, EncodeRequest(Request{Op: OpHealth})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeRequest error outside taxonomy: %v", err)
			}
		} else if !bytes.Equal(EncodeRequest(req), data) {
			t.Fatalf("request %+v re-encodes differently than its source", req)
		}

		if _, err := DecodeResponse(data); err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("DecodeResponse error outside taxonomy: %v", err)
		}

		// Frame reader over the same bytes, one byte per Read so every
		// split point is hit: consume frames until the stream ends or
		// turns hostile. Every outcome is classified and matches the
		// unbuffered reference reader's, and the buffer stays within
		// the wire bound.
		var fio frameIO
		got := bufferedFrames(&fio, iotest.OneByteReader(bytes.NewReader(data)))
		want := referenceFrames(bytes.NewReader(data))
		if len(got) != len(want) {
			t.Fatalf("frameIO made %d reads, reference %d", len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("read %d: frameIO %d bytes %s, reference %d bytes %s",
					k, len(got[k].payload), got[k].class, len(want[k].payload), want[k].class)
			}
		}
		if last := got[len(got)-1].class; last != "eof" && last != "bad-frame" {
			t.Fatalf("frameIO error outside taxonomy: %s", last)
		}
		if len(fio.rbuf) > MaxFrame+frameHeaderSize {
			t.Fatalf("frameIO buffer grew to %d bytes, beyond MaxFrame plus the header", len(fio.rbuf))
		}
	})
}
