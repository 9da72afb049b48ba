package ctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"lightpath/internal/invariant"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// restoreConfig is the server every restore test builds: Paranoid, so
// the drive after a restore audits each of its mutations.
var restoreConfig = Config{Seed: 11, Audit: invariant.Paranoid}

// workedServer returns a server workServer has driven, with one
// cross-wafer circuit added so its state holds fibers too.
func workedServer(t testing.TB) *Server {
	t.Helper()
	s, err := NewServer(restoreConfig)
	if err != nil {
		t.Fatal(err)
	}
	workServer(t, s)
	at := s.Clock() + 10*unit.Microsecond
	if resp := submit(s, Request{Op: OpEstablish, A: 5, B: 40, Width: 2}, at); resp.Status != StatusOK {
		t.Fatalf("cross-wafer establish: %+v", resp)
	}
	return s
}

// payloadOf returns the server's state payload.
func payloadOf(s *Server) []byte {
	var e snapshot.Encoder
	s.EncodeState(&e)
	return e.Bytes()
}

// restoreAndDrive restores payload into a fresh server. A refused
// payload returns accepted false. An accepted one must pass a full
// audit and then survive the drive: a release of every circuit and 8
// establishes through the allocator, with no panic and no violation.
// problem names the first way it did not.
func restoreAndDrive(payload []byte) (accepted bool, problem string) {
	s, err := NewServer(restoreConfig)
	if err != nil {
		return false, err.Error()
	}
	d := snapshot.NewDecoder(payload)
	if err := s.RestoreState(d); err != nil {
		if !errors.Is(err, snapshot.ErrCorruptSnapshot) && !errors.Is(err, snapshot.ErrConfigMismatch) {
			return false, fmt.Sprintf("restore error outside the snapshot taxonomy: %v", err)
		}
		return false, ""
	}
	if d.Finish() != nil {
		return false, ""
	}
	if v := s.Auditor().Audit("restored"); len(v) > 0 {
		return true, fmt.Sprintf("accepted state flagged: %v", v[0])
	}
	defer func() {
		if r := recover(); r != nil {
			problem = fmt.Sprintf("drive panicked: %v", r)
		}
	}()
	a := s.Allocator()
	for _, c := range a.Circuits() {
		a.Release(c)
	}
	n := a.Rack().NumChips()
	for i := 0; i < 8; i++ {
		_, _ = a.Establish(route.Request{A: 3 * i, B: n - 1 - 5*i, Width: 2}, s.Clock())
	}
	if err := s.Auditor().Err(); err != nil {
		return true, fmt.Sprintf("drive found violations: %v", err)
	}
	return true, ""
}

// TestRestoreRefusesCircuitOffItsHardware crafts two CRC-valid
// payloads whose circuit table disagrees with the rack beside it: one
// circuit's segment moved to a bus it does not hold, and one fiber
// pointed at a free fiber. Before restores ran a full audit, both
// restored, and releasing the moved circuit panicked in the wafer.
func TestRestoreRefusesCircuitOffItsHardware(t *testing.T) {
	cases := []struct {
		name  string
		craft func(t *testing.T, a *route.Allocator)
	}{
		{"segment-on-unheld-bus", func(t *testing.T, a *route.Allocator) {
			seg := &a.Circuits()[0].Segments[0]
			seg.Ref.Bus = a.Rack().Config().BusesPerLane - 1
		}},
		{"fiber-on-free-fiber", func(t *testing.T, a *route.Allocator) {
			for _, c := range a.Circuits() {
				if len(c.Fibers) == 0 {
					continue
				}
				f := &c.Fibers[0]
				for f.Fiber = 0; a.Rack().FiberAllocated(*f); f.Fiber++ {
				}
				return
			}
			t.Fatal("no circuit crosses a trunk")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := workedServer(t)
			tc.craft(t, s.Allocator())
			r, err := NewServer(restoreConfig)
			if err != nil {
				t.Fatal(err)
			}
			err = r.RestoreState(snapshot.NewDecoder(payloadOf(s)))
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("crafted payload restored: %v, want ErrCorruptSnapshot", err)
			}
			t.Log(err)
		})
	}
}

// TestRestoreSweepAlignedWords replaces each 8-byte-aligned word of a
// worked server's payload with five variants — +1, 0, +9999, all ones
// and +2^40 — and restores every payload that changed. Each must be
// refused, or restore to a state that passes a full audit and survives
// the drive. Before restores ran a full audit, thousands of accepted
// payloads were flagged by one, and many of those panicked in the
// drive.
func TestRestoreSweepAlignedWords(t *testing.T) {
	payload := payloadOf(workedServer(t))
	variants := [5]func(uint64) uint64{
		func(w uint64) uint64 { return w + 1 },
		func(uint64) uint64 { return 0 },
		func(w uint64) uint64 { return w + 9999 },
		func(uint64) uint64 { return ^uint64(0) },
		func(w uint64) uint64 { return w + 1<<40 },
	}
	start := time.Now()
	buf := make([]byte, len(payload))
	var tried, accepted int
	for off := 0; off+8 <= len(payload); off += 8 {
		orig := binary.LittleEndian.Uint64(payload[off:])
		for v, variant := range variants {
			w := variant(orig)
			if w == orig {
				continue
			}
			copy(buf, payload)
			binary.LittleEndian.PutUint64(buf[off:], w)
			tried++
			ok, problem := restoreAndDrive(buf)
			if problem != "" {
				t.Fatalf("offset %d variant %d: %s", off, v, problem)
			}
			if ok {
				accepted++
			}
		}
	}
	t.Logf("%d-byte payload: %d variants, %d accepted, none flagged or panicking (%v)",
		len(payload), tried, accepted, time.Since(start).Round(time.Millisecond))
}

// FuzzRestore throws mutated server payloads at RestoreState, seeded
// with a worked server's. Every input must be refused, or restore to a
// state that passes a full audit and survives the drive.
func FuzzRestore(f *testing.F) {
	f.Add(payloadOf(workedServer(f)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, problem := restoreAndDrive(payload); problem != "" {
			t.Fatal(problem)
		}
	})
}
