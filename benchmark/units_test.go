package benchmark

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"lightpath/internal/ctrl"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	seq := make([]float64, 20)
	for i := range seq {
		seq[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{seq, 5.25, 10.5, 15.75},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{10, 2, 7, 7, 3, 9, 1, 4, 8, 6}, 2.75, 6.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestFastQuartilePicksTheFastSide(t *testing.T) {
	// Slow rounds (interference) must not move the fast quartile.
	rounds := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100, 100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	base := fastQuartile(rounds, true)
	slowed := append([]float64(nil), rounds...)
	for i := 0; i < 8; i++ {
		slowed[i] = 60 // throughput collapses in 8 of 20 rounds
	}
	if got := fastQuartile(slowed, true); got < base-1 {
		t.Errorf("upper quartile fell from %v to %v when 8 of 20 rounds slowed", base, got)
	}
	if got, want := fastQuartile([]float64{4, 1, 3, 2}, false), 1.25; got != want {
		t.Errorf("lower quartile = %v, want %v", got, want)
	}
	if got := fastQuartile([]float64{7}, true); got != 7 {
		t.Errorf("one round = %v, want 7", got)
	}
}

func TestCalibrationScalesToReference(t *testing.T) {
	ref := canaryReading{echo: referenceEchoRate, cpu: referenceCPURate}
	half := canaryReading{echo: referenceEchoRate / 2, cpu: referenceCPURate / 2}
	echoHalf := canaryReading{echo: referenceEchoRate / 2, cpu: referenceCPURate}
	cal := calibration{readings: []canaryReading{ref, ref, half, half, echoHalf, echoHalf}}
	for _, tc := range []struct {
		round int
		want  float64
	}{
		{0, 1},            // both canaries at the reference speed
		{2, 2},            // both at half speed
		{4, math.Sqrt(2)}, // only the echo at half speed
		{1, 1 / 0.75},     // the bracketing readings average to 0.75 of the reference
	} {
		if got := cal.slowdown(tc.round); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("slowdown(%d) = %v, want %v", tc.round, got, tc.want)
		}
	}

	// Timed round i lies between readings i+1 and i+2. Two rounds of
	// 1,000 operations taking 2 s each at half speed are 1,000/s.
	slowed := calibration{readings: []canaryReading{ref, half, half, half}}
	work := []int{1000, 1000}
	if got := slowed.rate(work, []time.Duration{2 * time.Second, 2 * time.Second}); got != 1000 {
		t.Errorf("calibrated rate = %v, want 1000", got)
	}
	if got := (&calibration{}).rate(work, []time.Duration{time.Second, 3 * time.Second}); got != 500 {
		t.Errorf("uncalibrated rate = %v, want 2000 operations over 4 s", got)
	}
	allHalf := calibration{readings: []canaryReading{half, half, half}}
	if got := allHalf.setupSeconds([][]float64{{0.002}, {0.002, 0.002}}); got != 0.001 {
		t.Errorf("set-up samples of 2 ms at half speed calibrated to %v s, want 0.001", got)
	}
}

// frame builds one length-prefixed frame.
func frame(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// collector records completed frames.
type collector struct{ got [][]byte }

func (c *collector) frameDone(p []byte) { c.got = append(c.got, append([]byte{}, p...)) }

func TestFrameScannerSplitAndCoalesced(t *testing.T) {
	payloads := [][]byte{[]byte("abc"), {}, []byte("hello"), bytes.Repeat([]byte{7}, 300)}
	var stream []byte
	for _, p := range payloads {
		stream = append(stream, frame(p)...)
	}
	for _, chunk := range []int{1, 2, 3, 5, 7, 64, len(stream)} {
		var s frameScanner
		var c collector
		for off := 0; off < len(stream); off += chunk {
			s.feed(stream[off:min(off+chunk, len(stream))], &c)
		}
		if !reflect.DeepEqual(c.got, payloads) {
			t.Errorf("chunk %d: frames %q, want %q", chunk, c.got, payloads)
		}
	}
}

// scriptedConn returns its reads in fixed chunks and discards writes.
type scriptedConn struct {
	net.Conn
	chunks [][]byte
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	if len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *scriptedConn) Write(p []byte) (int, error) { return len(p), nil }

func TestTimedConnCountsCallsAndFrameBoundaries(t *testing.T) {
	req := frame([]byte("request-payload"))
	resp := frame([]byte("response"))
	// One request split over three reads: three read calls, and the
	// frame completes only with the last one.
	rec := newRecorder(10)
	conn := &timedConn{Conn: &scriptedConn{chunks: [][]byte{req[:2], req[2:9], req[9:]}}, rec: rec, server: true}
	buf := make([]byte, len(req))
	for i := 0; i < 3; i++ {
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
		if done := !conn.frameAt.IsZero(); done != (i == 2) {
			t.Fatalf("after read %d: frame complete = %v", i+1, done)
		}
	}
	if _, err := conn.Write(resp); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	if got.reads != 3 || got.writes != 1 || got.frames != 1 {
		t.Errorf("counters %+v, want 3 reads, 1 write, 1 frame", got)
	}
	ex := rec.exchanges()
	if len(ex) != 1 || string(ex[0].req) != "request-payload" || string(ex[0].resp) != "response" {
		t.Errorf("captured %q, want the request and response payloads", ex)
	}

	// Two requests coalesced into one read: one read call, two frames.
	rec = newRecorder(10)
	two := append(frame([]byte("one")), frame([]byte("two"))...)
	conn = &timedConn{Conn: &scriptedConn{chunks: [][]byte{two}}, rec: rec, server: true}
	if _, err := conn.Read(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshot(); got.reads != 1 || string(conn.req) != "two" {
		t.Errorf("coalesced read: %d read calls, last request %q; want 1 and %q", got.reads, conn.req, "two")
	}

	// The client side only counts.
	rec = newRecorder(10)
	client := rec.wrapClient(&scriptedConn{})
	if _, err := client.Write(req); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshot(); got.writes != 1 || got.frames != 0 {
		t.Errorf("client write: %+v, want 1 write and no answered frame", got)
	}
}

func TestRemapperFollowsGrantedCircuits(t *testing.T) {
	m := remapper{}
	ok := func(circuit int) ctrl.Response { return ctrl.Response{Status: ctrl.StatusOK, Circuit: circuit} }

	m.granted(ctrl.OpHealth, ok(0), ok(0)) // health carries no circuit
	m.granted(ctrl.OpEstablish, ok(7), ok(2))
	m.granted(ctrl.OpEstablish, ok(8), ctrl.Response{Status: ctrl.StatusNoPath})
	m.granted(ctrl.OpRelease, ok(7), ok(2))

	if req, found := m.request(ctrl.Request{Op: ctrl.OpRelease, Circuit: 7}); !found || req.Circuit != 2 {
		t.Errorf("release of 7 -> %d (found %v), want 2", req.Circuit, found)
	}
	if _, found := m.request(ctrl.Request{Op: ctrl.OpRelease, Circuit: 8}); found {
		t.Error("release of a circuit the replica refused was remapped")
	}
	if _, found := m.request(ctrl.Request{Op: ctrl.OpRelease, Circuit: 0}); found {
		t.Error("a health response created a circuit mapping")
	}
	est := ctrl.Request{Op: ctrl.OpEstablish, A: 1, B: 2, Width: 2}
	if req, found := m.request(est); !found || req != est {
		t.Errorf("establish rewritten to %+v", req)
	}
}

func TestParseTracesAndAttribute(t *testing.T) {
	out := `File: benchmark.test
Type: cpu
Duration: 2s, Total samples = 1.61s (80.50%)
-----------+-------------------------------------------------------
     1.50s   internal/runtime/syscall.Syscall6 /go/src/internal/runtime/syscall/asm_linux_amd64.s:36
             syscall.write /go/src/syscall/zsyscall_linux_amd64.go:964
             lightpath/internal/ctrl.(*frameIO).write /src/internal/ctrl/wire.go:412 (inline)
-----------+-------------------------------------------------------
      80ms   sort.insertionSort /go/src/sort/zsortinterface.go:12
             sort.pdqsort /go/src/sort/zsortinterface.go:73
             lightpath/internal/invariant.checkDisjointness /src/internal/invariant/invariant.go:301
             lightpath/internal/route.(*Allocator).endOp /src/internal/route/alloc.go:152
-----------+-------------------------------------------------------
      30ms   runtime.memmove /go/src/runtime/memmove_amd64.s:100
             lightpath/internal/ctrl/loadgen.(*campaign).encodeState /src/internal/ctrl/loadgen/checkpoint.go:140
-----------+-------------------------------------------------------
         0   aeshashbody
`
	samples, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{1500 * time.Millisecond, []stackFrame{
			{"internal/runtime/syscall.Syscall6", "asm_linux_amd64.s"},
			{"syscall.write", "zsyscall_linux_amd64.go"},
			{"lightpath/internal/ctrl.(*frameIO).write", "wire.go"},
		}},
		{80 * time.Millisecond, []stackFrame{
			{"sort.insertionSort", "zsortinterface.go"},
			{"sort.pdqsort", "zsortinterface.go"},
			{"lightpath/internal/invariant.checkDisjointness", "invariant.go"},
			{"lightpath/internal/route.(*Allocator).endOp", "alloc.go"},
		}},
		{30 * time.Millisecond, []stackFrame{
			{"runtime.memmove", "memmove_amd64.s"},
			{"lightpath/internal/ctrl/loadgen.(*campaign).encodeState", "checkpoint.go"},
		}},
		{0, []stackFrame{{"aeshashbody", ""}}},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("parsed %+v\nwant %+v", samples, want)
	}
	if _, err := parseTraces("File: x\nno samples\n"); err == nil {
		t.Error("output without a sample separator parsed")
	}

	for _, tc := range []struct {
		stack []stackFrame
		want  string
	}{
		{want[0].stack, "syscall"},
		{want[1].stack, "invariant"},
		{want[2].stack, "snapshot"}, // loadgen's checkpoint.go
		{want[3].stack, "runtime"},
		{[]stackFrame{{"lightpath/internal/ctrl.DecodeRequest", "wire.go"}}, "wire"},
		{[]stackFrame{{"lightpath/internal/ctrl.(*Handler).Serve.func1", "daemon.go"}}, "handler"},
		{[]stackFrame{{"lightpath/internal/ctrl.(*Server).Submit", "server.go"}}, "ctrl"},
		{[]stackFrame{{"runtime.mallocgc", "malloc.go"}, {"lightpath/internal/route.(*Allocator).commit", "alloc.go"}}, "runtime"},
		{[]stackFrame{{"lightpath/internal/phy.(*LossModel).SampleStitchLoss", "loss.go"}}, "wafer"},
		{[]stackFrame{{"lightpath/benchmark.runRound", "serve_test.go"}, {"testing.tRunner", "testing.go"}}, "other"},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
	shares := cpuShares(samples)
	if shares["syscall"] < 93 || shares["syscall"] > 93.2 || len(shares) != len(cpuLayers) {
		t.Errorf("shares %v: want syscall at 1.50s of 1.61s and every layer present", shares)
	}
}

func TestParseProfileDuration(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"0": 0, "10ms": 10 * time.Millisecond, "1.25s": 1250 * time.Millisecond,
		"2.50mins": 150 * time.Second, "1hrs": time.Hour, "250us": 250 * time.Microsecond,
	} {
		if got, err := parseProfileDuration(in); err != nil || got != want {
			t.Errorf("parseProfileDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
