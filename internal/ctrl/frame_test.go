package ctrl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"lightpath/internal/rng"
)

// readFrameReuse is the unbuffered frame reader the buffered frameIO
// replaced, kept verbatim as the reference: two io.ReadFull calls per
// frame, one for the header and one for the payload, reading nothing
// past the frame. It reads one frame into buf, growing it as needed,
// and returns the payload (aliasing the buffer) plus the possibly-grown
// buffer for the next call.
func readFrameReuse(r io.Reader, buf []byte) (payload, next []byte, err error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize)
	}
	hdr := buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, buf, io.EOF
		}
		return nil, buf, fmt.Errorf("%w: truncated header: %w", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("%w: length prefix %d exceeds MaxFrame %d", ErrBadFrame, n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, buf, fmt.Errorf("%w: truncated payload (%d declared): %w", ErrBadFrame, n, err)
	}
	return payload, buf, nil
}

// frameStep is one frame read's outcome: the payload's bytes and the
// class of its error.
type frameStep struct {
	payload string
	class   string
}

// frameErrClass names the error classes the wire contract promises:
// none, a clean end of stream, or a bad frame.
func frameErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadFrame):
		return "bad-frame"
	case errors.Is(err, io.EOF):
		return "eof"
	}
	return "unclassified: " + err.Error()
}

// drainFrames reads frames until the first error and returns every
// outcome, the error's included.
func drainFrames(read func() ([]byte, error)) []frameStep {
	var steps []frameStep
	for {
		payload, err := read()
		steps = append(steps, frameStep{string(payload), frameErrClass(err)})
		if err != nil {
			return steps
		}
	}
}

// referenceFrames drains r through the reference reader.
func referenceFrames(r io.Reader) []frameStep {
	var buf []byte
	return drainFrames(func() ([]byte, error) {
		payload, next, err := readFrameReuse(r, buf)
		buf = next
		return payload, err
	})
}

// bufferedFrames drains r through f.
func bufferedFrames(f *frameIO, r io.Reader) []frameStep {
	return drainFrames(func() ([]byte, error) { return f.read(r) })
}

// splitReader hands data out in chunks that end at the cut offsets:
// each Read returns at most the rest of the current chunk.
type splitReader struct {
	data []byte
	cuts []int // ascending offsets into data
	off  int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if s.off == len(s.data) {
		return 0, io.EOF
	}
	end := len(s.data)
	for _, c := range s.cuts {
		if c > s.off {
			end = c
			break
		}
	}
	n := copy(p, s.data[s.off:end])
	s.off += n
	return n, nil
}

// countingReader counts the Read calls made on it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// How a generated frame stream ends.
const (
	tailClean = iota
	tailTornHeader
	tailTornPayload
	tailHostile
	numTails
)

// frameStream builds a seeded stream of whole frames, some larger than
// the initial read buffer, followed by the given tail. It also returns
// the length the buffered reader's buffer must settle at: the larger of
// its initial size and the largest frame whose header it can read.
func frameStream(r *rng.Rand, tail int) (data []byte, wantBuf int) {
	wantBuf = readBufSize
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return b
	}
	for i := r.Intn(6); i > 0; i-- {
		n := r.Intn(600)
		if r.Intn(8) == 0 {
			n = r.Intn(4000)
		}
		data = AppendFrame(data, randBytes(n))
		wantBuf = max(wantBuf, frameHeaderSize+n)
	}
	switch tail {
	case tailTornHeader:
		data = append(data, randBytes(1+r.Intn(frameHeaderSize-1))...)
	case tailTornPayload:
		n := 1 + r.Intn(900)
		data = binary.LittleEndian.AppendUint32(data, uint32(n))
		data = append(data, randBytes(r.Intn(n))...)
		wantBuf = max(wantBuf, frameHeaderSize+n)
	case tailHostile:
		data = binary.LittleEndian.AppendUint32(data, uint32(MaxFrame+1+r.Intn(1<<20)))
		data = append(data, randBytes(r.Intn(16))...)
	}
	return data, wantBuf
}

// TestFrameIOMatchesReference checks the buffered reader against the
// unbuffered reference over seeded streams — clean ends, torn headers,
// torn payloads and hostile prefixes behind whole frames — delivered in
// every chunking: all at once (several frames coalesced into one
// chunk), one byte per read, half reads, the last data with io.EOF, and
// random split points. Each must yield the same payloads and error
// classes, and leave the buffer at the largest frame seen.
func TestFrameIOMatchesReference(t *testing.T) {
	r := rng.New(2024)
	chunkings := []struct {
		name string
		wrap func(data []byte) io.Reader
	}{
		{"coalesced", func(data []byte) io.Reader { return bytes.NewReader(data) }},
		{"one-byte", func(data []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		{"half", func(data []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(data)) }},
		{"data-err", func(data []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) }},
		{"random-splits", func(data []byte) io.Reader {
			var cuts []int
			for off := r.Intn(64); off < len(data); off += 1 + r.Intn(700) {
				cuts = append(cuts, off)
			}
			return &splitReader{data: data, cuts: cuts}
		}},
	}
	for i := 0; i < 400; i++ {
		tail := i % numTails
		data, wantBuf := frameStream(r, tail)
		for _, c := range chunkings {
			want := referenceFrames(c.wrap(data))
			var f frameIO
			got := bufferedFrames(&f, c.wrap(data))
			if len(got) != len(want) {
				t.Fatalf("stream %d (tail %d), %s: %d reads, reference %d", i, tail, c.name, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("stream %d (tail %d), %s, read %d: got %d bytes %s, reference %d bytes %s",
						i, tail, c.name, k, len(got[k].payload), got[k].class, len(want[k].payload), want[k].class)
				}
			}
			if len(f.rbuf) != wantBuf {
				t.Fatalf("stream %d (tail %d), %s: buffer settled at %d bytes, want %d", i, tail, c.name, len(f.rbuf), wantBuf)
			}
		}
	}
}

// TestFrameIOBufferBound pins the growth rule at the wire bound: a
// MaxFrame payload grows the buffer to exactly MaxFrame plus the
// header, smaller frames after it reuse that buffer, and a prefix one
// byte beyond the bound is rejected without growing it further.
func TestFrameIOBufferBound(t *testing.T) {
	big := bytes.Repeat([]byte{0x5a}, MaxFrame)
	small := requestBytes(Request{Op: OpHealth})
	data := AppendFrame(AppendFrame(AppendFrame(nil, small), big), small)
	data = binary.LittleEndian.AppendUint32(data, MaxFrame+1)
	var f frameIO
	steps := bufferedFrames(&f, iotest.HalfReader(bytes.NewReader(data)))
	want := []frameStep{{string(small), "ok"}, {string(big), "ok"}, {string(small), "ok"}, {"", "bad-frame"}}
	if len(steps) != len(want) {
		t.Fatalf("%d reads, want %d", len(steps), len(want))
	}
	for k := range want {
		if steps[k] != want[k] {
			t.Fatalf("read %d: %d bytes %s, want %d bytes %s", k, len(steps[k].payload), steps[k].class, len(want[k].payload), want[k].class)
		}
	}
	if len(f.rbuf) != MaxFrame+frameHeaderSize {
		t.Fatalf("buffer is %d bytes, want MaxFrame+%d = %d", len(f.rbuf), frameHeaderSize, MaxFrame+frameHeaderSize)
	}
}

// TestFrameIOWarmReadAllocatesNothing pins the serve loop's read side:
// once a connection's buffer has seen its largest frame, reading
// another frame — alone, or several coalesced in one chunk — allocates
// nothing.
func TestFrameIOWarmReadAllocatesNothing(t *testing.T) {
	frame := AppendFrame(nil, requestBytes(Request{Op: OpEstablish, A: 3, B: 9, Width: 2}))
	coalesced := bytes.Repeat(frame, 3)
	r := bytes.NewReader(coalesced)
	var f frameIO
	for _, want := range [][]byte{frame, frame, frame} {
		payload, err := f.read(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, want[frameHeaderSize:]) {
			t.Fatalf("payload %x, want %x", payload, want[frameHeaderSize:])
		}
	}
	for _, chunk := range [][]byte{frame, coalesced} {
		allocs := testing.AllocsPerRun(200, func() {
			r.Reset(chunk)
			for {
				if _, err := f.read(r); err != nil {
					if !errors.Is(err, io.EOF) {
						t.Fatal(err)
					}
					return
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("warm frameIO.read of a %d-byte chunk allocates %v times, want 0", len(chunk), allocs)
		}
	}
}
