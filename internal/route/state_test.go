package route

import (
	"errors"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// scrambledAllocator builds an allocator with a stochastic loss model
// and walks it through enough history to dirty every piece of state
// the snapshot covers: live circuits, a released one, fiber usage, a
// degraded waveguide, a severed trunk row, and an advanced RNG stream.
func scrambledAllocator(t *testing.T) *Allocator {
	t.Helper()
	a := NewAllocator(twoWaferRack(t), rng.New(42))
	for _, req := range []Request{
		{A: 0, B: 11, Width: 4},
		{A: 3, B: 40, Width: 2}, // cross-wafer: uses trunk fibers
		{A: 16, B: 27, Width: 4},
	} {
		if _, err := a.Establish(req, 5*unit.Second); err != nil {
			t.Fatalf("establish %+v: %v", req, err)
		}
	}
	victim, err := a.Establish(Request{A: 5, B: 14, Width: 2}, 6*unit.Second)
	if err != nil {
		t.Fatal(err)
	}
	a.Release(victim) // leaves a hole in the ID space
	for _, f := range []chaos.Fault{
		{Time: 7 * unit.Second, Class: chaos.WaveguideLoss, Wafer: 0, Horizontal: true, Lane: 1, Pos: 2, ExtraLossDB: 1.5},
		{Time: 8 * unit.Second, Class: chaos.FiberCut, Trunk: 0, Row: 1},
		{Time: 9 * unit.Second, Class: chaos.LaserDeath, Chip: 9},
	} {
		if _, err := a.ApplyFault(f); err != nil {
			t.Fatalf("fault %v: %v", f, err)
		}
	}
	return a
}

func encodeAllocator(a *Allocator) []byte {
	var e snapshot.Encoder
	a.EncodeState(&e)
	return e.Bytes()
}

func TestAllocatorStateRoundTrip(t *testing.T) {
	orig := scrambledAllocator(t)
	payload := encodeAllocator(orig)

	// Restore into a fresh allocator over fresh hardware. Seed the
	// restored loss stream differently on purpose: the snapshot must
	// overwrite it.
	restored := NewAllocator(twoWaferRack(t), rng.New(999))
	d := snapshot.NewDecoder(payload)
	if err := restored.RestoreState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	// Re-encoding the restored allocator must reproduce the payload
	// bit for bit — the byte-identical-resume contract.
	if got := encodeAllocator(restored); string(got) != string(payload) {
		t.Fatalf("re-encoded state differs: %d bytes vs %d", len(got), len(payload))
	}
	// The fiber cut travels with the rack.
	if !restored.Rack().FiberRowCut(0, 1) {
		t.Fatal("restored rack lost the cut of trunk 0 row 1")
	}

	// The two allocators must now behave identically, stochastic loss
	// draws included.
	co, err1 := orig.Establish(Request{A: 33, B: 62, Width: 2}, 10*unit.Second)
	cr, err2 := restored.Establish(Request{A: 33, B: 62, Width: 2}, 10*unit.Second)
	if err1 != nil || err2 != nil {
		t.Fatalf("post-restore establish: orig err %v, restored err %v", err1, err2)
	}
	if co.ID != cr.ID {
		t.Fatalf("post-restore circuit IDs diverge: %d vs %d", co.ID, cr.ID)
	}
	if co.Link.TotalLossDB != cr.Link.TotalLossDB {
		t.Fatalf("post-restore link reports diverge: %+v vs %+v", co.Link, cr.Link)
	}
	if string(encodeAllocator(orig)) != string(encodeAllocator(restored)) {
		t.Fatal("states diverge after identical post-restore mutation")
	}
}

func TestCircuitByIDReturnsAllocatorPointer(t *testing.T) {
	a := scrambledAllocator(t)
	payload := encodeAllocator(a)
	restored := NewAllocator(twoWaferRack(t), rng.New(0))
	if err := restored.RestoreState(snapshot.NewDecoder(payload)); err != nil {
		t.Fatal(err)
	}
	for _, c := range restored.Circuits() {
		got, ok := restored.CircuitByID(c.ID)
		if !ok || got != c {
			t.Fatalf("CircuitByID(%d) = %p, want the allocator's own %p", c.ID, got, c)
		}
	}
	// Releasing through the looked-up pointer must actually free
	// resources — Release compares pointer identity.
	c := restored.Circuits()[0]
	got, _ := restored.CircuitByID(c.ID)
	restored.Release(got)
	if _, still := restored.CircuitByID(c.ID); still {
		t.Fatal("circuit still registered after release via CircuitByID pointer")
	}
}

func TestAllocatorRestoreRejectsCorruption(t *testing.T) {
	payload := encodeAllocator(scrambledAllocator(t))
	// Every truncation must surface ErrCorruptSnapshot — either from a
	// decode failure or from a geometry/consistency check — and never
	// panic.
	for cut := 0; cut < len(payload); cut += 7 {
		restored := NewAllocator(twoWaferRack(t), rng.New(0))
		d := snapshot.NewDecoder(payload[:cut])
		err := restored.RestoreState(d)
		if err == nil {
			err = d.Finish()
		}
		if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
}

func TestRackRestoreRejectsGeometryMismatch(t *testing.T) {
	var e snapshot.Encoder
	scrambledAllocator(t).Rack().EncodeState(&e)
	small, err := wafer.NewRack(wafer.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.RestoreState(snapshot.NewDecoder(e.Bytes())); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("wafer-count mismatch: err = %v, want ErrCorruptSnapshot", err)
	}
}
