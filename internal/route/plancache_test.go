// Differential and epoch-invalidation tests for the route-plan cache.
// Like the fuzz target, these live in the external test package so the
// Paranoid invariant auditor can watch every mutation (package
// invariant imports route).
package route_test

import (
	"bytes"
	"fmt"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// diffTrialStride separates per-trial seeds (splitmix64 golden gamma).
const diffTrialStride = 0x9e3779b97f4a7c15

// newDiffAllocator builds one allocator over a fresh two-wafer rack
// with a Paranoid auditor attached.
func newDiffAllocator(t *testing.T, seed uint64) (*route.Allocator, *invariant.Auditor) {
	t.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, rng.New(seed).Split("diff/loss"))
	return a, invariant.Attach(a, invariant.Paranoid)
}

// errString folds an error to a comparable string ("" for nil). The
// cached and uncached paths must produce not just the same error
// classes but the same rendered messages.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffStep applies one operation to one allocator and returns a
// transcript line describing its observable outcome. Both allocators
// see the same op sequence; the transcripts must match line for line.
func diffStep(a *route.Allocator, r *rng.Rand, op int, live []*route.Circuit) (string, []*route.Circuit) {
	chips := a.Rack().NumChips()
	trunks := a.Rack().NumTrunks()
	rows := a.Rack().Config().Rows
	switch {
	case op < 5: // establish
		req := route.Request{A: r.Intn(chips), B: r.Intn(chips), Width: 1 + r.Intn(3)}
		c, err := a.Establish(req, 0)
		if err != nil {
			return fmt.Sprintf("establish %d<->%d w%d: %s", req.A, req.B, req.Width, errString(err)), live
		}
		live = append(live, c)
		return fmt.Sprintf("establish %d<->%d w%d: id %d loss %.6f", req.A, req.B, req.Width, c.ID, float64(c.Link.TotalLossDB)), live

	case op < 7: // release a random live circuit
		if len(live) == 0 {
			return "release: none", live
		}
		i := r.Intn(len(live))
		c := live[i]
		live = append(live[:i], live[i+1:]...)
		a.Release(c)
		return fmt.Sprintf("release id %d", c.ID), live

	case op == 7: // fail a fiber row (decentralized fault path)
		trunk, row := r.Intn(trunks), r.Intn(rows)
		broken := a.FailFiberRow(trunk, row)
		line := fmt.Sprintf("fail-row %d/%d: broke %d", trunk, row, len(broken))
		live, line = reestablishBroken(a, broken, live, line)
		return line, live

	case op == 8: // repair a fiber row
		trunk, row := r.Intn(trunks), r.Intn(rows)
		a.RestoreFiberRow(trunk, row)
		return fmt.Sprintf("restore-row %d/%d", trunk, row), live

	default: // chaos fault
		f := chaos.Fault{Class: chaos.Class(r.Intn(chaos.NumClasses))}
		switch f.Class {
		case chaos.LaserDeath, chaos.MZIStuck, chaos.ChipFailure:
			f.Chip = r.Intn(chips)
			f.Switch = r.Intn(wafer.SwitchesPerTile)
		case chaos.WaveguideLoss:
			f.Wafer = r.Intn(a.Rack().NumWafers())
			f.Horizontal = r.Intn(2) == 0
			f.Lane = r.Intn(a.Rack().Config().Rows)
			f.Pos = r.Intn(a.Rack().Config().Cols)
			f.ExtraLossDB = 3
		case chaos.FiberCut:
			f.Trunk = r.Intn(trunks)
			f.Row = r.Intn(rows)
		}
		broken, err := a.ApplyFault(f)
		line := fmt.Sprintf("fault %v: broke %d err %s", f.Class, len(broken), errString(err))
		live, line = reestablishBroken(a, broken, live, line)
		return line, live
	}
}

// reestablishBroken walks the broken circuits the way the controller
// does, recording each outcome, and drops them from the live set.
func reestablishBroken(a *route.Allocator, broken, live []*route.Circuit, line string) ([]*route.Circuit, string) {
	for _, c := range broken {
		for i, lc := range live {
			if lc == c {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		nc, degraded, err := a.EstablishDegraded(route.Request{A: c.A, B: c.B, Width: c.Width}, 0)
		if err != nil {
			line += fmt.Sprintf("; re %d: %s", c.ID, errString(err))
			continue
		}
		live = append(live, nc)
		line += fmt.Sprintf("; re %d->%d w%d deg %v", c.ID, nc.ID, nc.Width, degraded)
	}
	return live, line
}

// TestPlanCacheDifferential runs 200 seeded trials of interleaved
// establishes, releases, row fail/repair and chaos faults through two
// allocators that differ only in plan caching, and demands their
// behavior be bit-for-bit identical: same per-op transcript (granted
// IDs, widths, losses, error messages), same final snapshot bytes, and
// zero invariant violations on either side.
func TestPlanCacheDifferential(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	const trials = 200
	const opsPerTrial = 40
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial)*diffTrialStride + 1
		cached, audC := newDiffAllocator(t, seed)
		plain, audP := newDiffAllocator(t, seed)
		plain.DisablePlanCache()

		// Two identical op streams: both sides must draw the same ops.
		opsC := rng.New(seed).Split("diff/ops")
		opsP := rng.New(seed).Split("diff/ops")
		var liveC, liveP []*route.Circuit
		for i := 0; i < opsPerTrial; i++ {
			op := opsC.Intn(10)
			if got := opsP.Intn(10); got != op {
				t.Fatalf("trial %d op %d: op streams diverged (%d vs %d)", trial, i, op, got)
			}
			lineC, nliveC := diffStep(cached, opsC, op, liveC)
			lineP, nliveP := diffStep(plain, opsP, op, liveP)
			liveC, liveP = nliveC, nliveP
			if lineC != lineP {
				t.Fatalf("trial %d (seed %#x) op %d diverged:\n  cached: %s\n  plain:  %s",
					trial, seed, i, lineC, lineP)
			}
		}
		if err := audC.Err(); err != nil {
			t.Fatalf("trial %d: cached allocator violated invariants: %v", trial, err)
		}
		if err := audP.Err(); err != nil {
			t.Fatalf("trial %d: uncached allocator violated invariants: %v", trial, err)
		}

		// Snapshot identity, with the cache section normalized away —
		// the uncached twin never populates it by construction.
		cached.ClearPlanCacheForTest()
		plain.ClearPlanCacheForTest()
		var eC, eP snapshot.Encoder
		cached.EncodeState(&eC)
		plain.EncodeState(&eP)
		if !bytes.Equal(eC.Bytes(), eP.Bytes()) {
			t.Fatalf("trial %d (seed %#x): snapshot bytes diverged (%d vs %d bytes)",
				trial, seed, len(eC.Bytes()), len(eP.Bytes()))
		}
	}
}

// FuzzPlanCacheEpoch hammers the epoch protocol: a fuzzed interleaving
// of establishes, releases, row failures, repairs and chaos faults runs
// through a cached allocator and its uncached twin in lockstep. If a
// stale-epoch plan were ever committed — a path derived before a fault
// surviving the bump — the transcript would diverge (the uncached side
// re-derives every time) or the Paranoid auditor would flag the circuit
// crossing dead hardware. The committed corpus under testdata/fuzz pins
// the interleavings that run in normal test mode.
func FuzzPlanCacheEpoch(f *testing.F) {
	f.Add(uint64(1), uint8(16))
	f.Add(uint64(2024), uint8(48))
	f.Add(uint64(7), uint8(255))
	f.Add(uint64(0xdead), uint8(80))
	f.Fuzz(func(t *testing.T, seed uint64, nOps uint8) {
		t.Cleanup(invariant.ResetGlobal)
		cached, audC := newDiffAllocator(t, seed)
		plain, audP := newDiffAllocator(t, seed)
		plain.DisablePlanCache()
		opsC := rng.New(seed).Split("diff/ops")
		opsP := rng.New(seed).Split("diff/ops")
		var liveC, liveP []*route.Circuit
		for i := 0; i < int(nOps); i++ {
			op := opsC.Intn(10)
			opsP.Intn(10)
			lineC, nliveC := diffStep(cached, opsC, op, liveC)
			lineP, nliveP := diffStep(plain, opsP, op, liveP)
			liveC, liveP = nliveC, nliveP
			if lineC != lineP {
				t.Fatalf("seed %#x op %d diverged:\n  cached: %s\n  plain:  %s", seed, i, lineC, lineP)
			}
		}
		if err := audC.Err(); err != nil {
			t.Fatalf("cached allocator violated invariants: %v", err)
		}
		if err := audP.Err(); err != nil {
			t.Fatalf("uncached allocator violated invariants: %v", err)
		}
		cached.ClearPlanCacheForTest()
		plain.ClearPlanCacheForTest()
		var eC, eP snapshot.Encoder
		cached.EncodeState(&eC)
		plain.EncodeState(&eP)
		if !bytes.Equal(eC.Bytes(), eP.Bytes()) {
			t.Fatalf("seed %#x: snapshot bytes diverged", seed)
		}
	})
}

// TestPlanCacheEpochInvalidation pins the epoch protocol: hits accrue
// on repeat lookups, every fault/repair class bumps the epoch, and a
// bump empties the valid-entry set until lookups re-derive.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	a, aud := newDiffAllocator(t, 99)
	c, err := a.Establish(route.Request{A: 0, B: 40, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Release(c)
	epoch := a.PlanCacheEpoch()
	if epoch == 0 {
		t.Fatal("cache never initialized")
	}
	if n := a.PlanCacheValidPairs(); n != 1 {
		t.Fatalf("valid pairs = %d, want 1", n)
	}
	hits0, misses0 := a.PlanCacheStats()
	if misses0 != 1 || hits0 != 0 {
		t.Fatalf("after first establish: hits %d misses %d, want 0/1", hits0, misses0)
	}
	c, err = a.Establish(route.Request{A: 0, B: 40, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Release(c)
	if hits, _ := a.PlanCacheStats(); hits != 1 {
		t.Fatalf("repeat establish did not hit (hits %d)", hits)
	}

	// Every invalidation source bumps the epoch and flushes the table.
	bumps := []struct {
		name string
		do   func()
	}{
		{"fail-row", func() { a.FailFiberRow(0, 0) }},
		{"restore-row", func() { a.RestoreFiberRow(0, 0) }},
		{"apply-fault", func() {
			if _, err := a.ApplyFault(chaos.Fault{Class: chaos.LaserDeath, Chip: 3}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, b := range bumps {
		before := a.PlanCacheEpoch()
		b.do()
		if got := a.PlanCacheEpoch(); got != before+1 {
			t.Fatalf("%s: epoch %d -> %d, want +1", b.name, before, got)
		}
		if n := a.PlanCacheValidPairs(); n != 0 {
			t.Fatalf("%s: %d entries still valid after epoch bump", b.name, n)
		}
	}
	if err := aud.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheSnapshotRewarm is the kill-at-boundary identity check
// at the allocator level: snapshot a warm cache mid-workload, restore
// into a fresh allocator, and demand the restored side report the same
// counters and valid set and behave identically afterward — including
// accruing hits on exactly the pairs the original would have.
func TestPlanCacheSnapshotRewarm(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	a, _ := newDiffAllocator(t, 7)
	reqs := []route.Request{
		{A: 0, B: 40, Width: 1},
		{A: 3, B: 50, Width: 2},
		{A: 10, B: 20, Width: 1},
	}
	var held []*route.Circuit
	for _, req := range reqs {
		c, err := a.Establish(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	a.FailFiberRow(0, 1)
	if _, err := a.Establish(reqs[0], 0); err != nil {
		t.Fatal(err)
	}

	var e snapshot.Encoder
	a.EncodeState(&e)

	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b := route.NewAllocator(rack, rng.New(7).Split("diff/loss"))
	if err := b.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}

	ha, ma := a.PlanCacheStats()
	hb, mb := b.PlanCacheStats()
	if ha != hb || ma != mb {
		t.Fatalf("restored counters %d/%d, want %d/%d", hb, mb, ha, ma)
	}
	if pa, pb := a.PlanCacheValidPairs(), b.PlanCacheValidPairs(); pa != pb {
		t.Fatalf("restored valid pairs %d, want %d", pb, pa)
	}

	// Post-restore behavior: a repeat of the one pair still valid at
	// the current epoch (re-derived after the row failure) must hit on
	// both sides; a fresh pair must miss on both. The pairs cached
	// before the FailFiberRow bump are stale by design. The RNG streams
	// are mid-sequence vs restored, so compare cache behavior, not loss
	// values.
	for _, side := range []*route.Allocator{a, b} {
		h0, m0 := side.PlanCacheStats()
		c, err := side.Establish(reqs[0], unit.Seconds(0))
		if err != nil {
			t.Fatal(err)
		}
		side.Release(c)
		h1, m1 := side.PlanCacheStats()
		if h1 != h0+1 || m1 != m0 {
			t.Fatalf("repeat pair: hits %d->%d misses %d->%d, want a pure hit", h0, h1, m0, m1)
		}
		c, err = side.Establish(route.Request{A: 5, B: 60, Width: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		side.Release(c)
		h2, m2 := side.PlanCacheStats()
		if h2 != h1 || m2 != m1+1 {
			t.Fatalf("fresh pair: hits %d->%d misses %d->%d, want a pure miss", h1, h2, m1, m2)
		}
	}
}
