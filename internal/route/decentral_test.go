package route

import (
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/rng"
	"lightpath/internal/wafer"
)

func contendingRequests(n int) []Request {
	// All requests funnel through the same rows/columns of a single
	// 32-chip wafer to force conflicts under optimistic allocation
	// with few buses.
	var reqs []Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{A: i % 8, B: 24 + (i+1)%8, Width: 1})
	}
	return reqs
}

func scarceRack(t *testing.T) *wafer.Rack {
	t.Helper()
	cfg := wafer.DefaultConfig()
	cfg.BusesPerLane = 2 // scarce waveguides: round-start proposals collide
	rack, err := wafer.NewRack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rack
}

func TestDecentralizedEstablishesAll(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(11))
	d := NewDecentralized(a, rng.New(12))
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{A: i, B: 63 - i, Width: 1})
	}
	out := d.EstablishBatch(reqs, 0)
	if len(out.Failed) != 0 {
		t.Fatalf("failed = %d on an empty rack", len(out.Failed))
	}
	if len(out.Circuits) != 16 {
		t.Fatalf("established = %d, want 16", len(out.Circuits))
	}
	// Disjointness holds under decentralized allocation too.
	for i := range out.Circuits {
		for j := i + 1; j < len(out.Circuits); j++ {
			if out.Circuits[i].SharesResources(out.Circuits[j]) {
				t.Fatal("decentralized circuits share resources")
			}
		}
	}
}

// TestDecentralizedProposalsKeepTheirOwnPaths: every proposal of a
// round is computed before any commits, so each must hold its own copy
// of its plan. A batch that does not contend on an empty rack must
// establish each circuit over a path between its own endpoints: every
// circuit holds a segment on the wafer of each endpoint.
func TestDecentralizedProposalsKeepTheirOwnPaths(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(71))
	reqs := []Request{{A: 0, B: 27, Width: 1}, {A: 9, B: 50, Width: 1}, {A: 14, B: 3, Width: 1}, {A: 40, B: 61, Width: 1}}
	out := NewDecentralized(a, nil).EstablishBatch(reqs, 0)
	if len(out.Circuits) != len(reqs) {
		t.Fatalf("established %d of %d requests on an empty rack", len(out.Circuits), len(reqs))
	}
	for _, c := range out.Circuits {
		for _, chip := range [2]int{c.A, c.B} {
			w, _, _ := rack.Place(chip)
			onWafer := false
			for _, s := range c.Segments {
				onWafer = onWafer || s.Wafer == w
			}
			if !onWafer {
				t.Errorf("circuit %d (%d<->%d) holds no segment on wafer %d of chip %d: %v", c.ID, c.A, c.B, w, chip, c.Segments)
			}
		}
	}
}

func TestDecentralizedPaysConflictAttempts(t *testing.T) {
	// Ablation: with 2 buses per lane, round-start proposals collide,
	// so the decentralized allocator pays strictly more attempts than
	// the centralized one for the same workload, establishes just as
	// many circuits, and loses no request.
	reqs := contendingRequests(8)

	central := NewAllocator(scarceRack(t), rng.New(21))
	outC := central.EstablishBatch(reqs, 0)

	decAlloc := NewAllocator(scarceRack(t), rng.New(21))
	dec := NewDecentralized(decAlloc, rng.New(22))
	outD := dec.EstablishBatch(reqs, 0)

	if outD.Attempts <= outC.Attempts {
		t.Fatalf("decentralized attempts %d <= centralized %d: no conflict cost", outD.Attempts, outC.Attempts)
	}
	if outD.Rounds < 2 {
		t.Fatalf("decentralized batch took %d round; a collision needs a retry round", outD.Rounds)
	}
	if len(outD.Circuits) != len(outC.Circuits) {
		t.Fatalf("decentralized established %d, centralized %d", len(outD.Circuits), len(outC.Circuits))
	}
	if len(outD.Circuits)+len(outD.Failed) != len(reqs) {
		t.Fatalf("decentralized lost requests: %d + %d != %d",
			len(outD.Circuits), len(outD.Failed), len(reqs))
	}
}

// TestDecentralizedStopsAtRoundLimit: a request that loses every
// commit walks one candidate per round. Across two wafers of eight
// tile rows it has 16 candidates (eight fiber rows, two L-shapes), so
// it would need a 17th round to run out of them; the round limit
// reports it failed after round maxRounds.
func TestDecentralizedStopsAtRoundLimit(t *testing.T) {
	cfg := wafer.DefaultConfig()
	cfg.Rows = 8
	rack, err := wafer.NewRack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(31))
	// An endpoint with no free laser fails every commit.
	if err := rack.TileOf(0).Reserve(rack.TileOf(0).FreeLasers()); err != nil {
		t.Fatal(err)
	}
	req := Request{A: 0, B: cfg.Tiles(), Width: 1}
	if n := len(planKeys(a, req)); n < maxRounds {
		t.Fatalf("%d candidate plans run out before the %d-round limit", n, maxRounds)
	}
	out := NewDecentralized(a, rng.New(32)).EstablishBatch([]Request{req}, 0)
	if out.Rounds != maxRounds || out.Attempts != maxRounds {
		t.Fatalf("rounds = %d, attempts = %d, want %d each", out.Rounds, out.Attempts, maxRounds)
	}
	if len(out.Circuits) != 0 || len(out.Failed) != 1 {
		t.Fatalf("%d circuits, %d failed, want the request failed", len(out.Circuits), len(out.Failed))
	}
}

func TestFiberCutReroutesCircuits(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(41))
	c, err := a.Establish(Request{A: 0, B: 32, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := c.Fibers[0].Row
	affected, err := a.ApplyFault(chaos.Fault{Class: chaos.FiberCut, Trunk: 0, Row: row})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0].ID != c.ID {
		t.Fatalf("affected = %v", affected)
	}
	if !rack.FiberRowCut(0, row) {
		t.Fatal("row not marked cut")
	}
	// Re-establish: must avoid the failed row.
	c2, err := a.Establish(Request{A: 0, B: 32, Width: 1}, 0)
	if err != nil {
		t.Fatalf("re-establish after fiber failure: %v", err)
	}
	if c2.Fibers[0].Row == row {
		t.Fatal("repair reused the failed row")
	}
}

func TestFailAllRowsMakesCrossWaferImpossible(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(51))
	for row := 0; row < rack.Config().Rows; row++ {
		if _, err := a.ApplyFault(chaos.Fault{Class: chaos.FiberCut, Trunk: 0, Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Establish(Request{A: 0, B: 32, Width: 1}, 0); err == nil {
		t.Fatal("cross-wafer circuit established with all trunk rows failed")
	}
	// Intra-wafer circuits still work.
	if _, err := a.Establish(Request{A: 0, B: 5, Width: 1}, 0); err != nil {
		t.Fatalf("intra-wafer circuit: %v", err)
	}
}

// TestFiberPackingKeepsSpareRows: the §5 fiber-minimization ablation.
// With packing, circuits concentrate on few rows, leaving more fully
// spare rows for fault repair than the spread (shortest-path) policy.
func TestFiberPackingKeepsSpareRows(t *testing.T) {
	load := []Request{
		{A: 0, B: 32, Width: 1},  // row 0 source
		{A: 8, B: 40, Width: 1},  // row 1 source
		{A: 16, B: 48, Width: 1}, // row 2 source
	}

	spread := NewAllocator(twoWaferRack(t), rng.New(61))
	if out := spread.EstablishBatch(load, 0); len(out.Failed) != 0 {
		t.Fatal("spread failed requests")
	}
	packed := NewAllocator(twoWaferRack(t), rng.New(61))
	packed.PackFibers = true
	if out := packed.EstablishBatch(load, 0); len(out.Failed) != 0 {
		t.Fatal("packed failed requests")
	}

	if s, p := spread.Rack().SpareFullRows(0), packed.Rack().SpareFullRows(0); p <= s {
		t.Fatalf("packing spare rows = %d, spread = %d; packing should preserve more", p, s)
	}
}

func TestSegmentAndCircuitStrings(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, nil)
	c, err := a.Establish(Request{A: 0, B: 33, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.String()) == 0 || len(c.Segments[0].String()) == 0 {
		t.Fatal("empty string renderings")
	}
}

// TestZPathFallback: when both L-shaped variants are blocked by bus
// exhaustion, the allocator routes a Z-shaped detour through an
// intermediate lane instead of failing.
func TestZPathFallback(t *testing.T) {
	cfg := wafer.DefaultConfig()
	cfg.BusesPerLane = 1
	rack, err := wafer.NewRack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(3))
	w := rack.Wafer(0)
	// Block the horizontal lanes of rows 0 and 1: the H-first L needs
	// row 0, the V-first L needs row 1 — both dead.
	for _, lane := range []int{0, 1} {
		if _, err := w.AllocBus(wafer.Horizontal, lane, wafer.Interval{Lo: 0, Hi: 7}); err != nil {
			t.Fatal(err)
		}
	}
	// Chip 0 = (0,0); chip 11 = (1,3). A V-H-V detour via row 2 or 3
	// must succeed.
	c, err := a.Establish(Request{A: 0, B: 11, Width: 1}, 0)
	if err != nil {
		t.Fatalf("Z-path fallback failed: %v", err)
	}
	if len(c.Segments) != 3 {
		t.Fatalf("detour segments = %d, want 3", len(c.Segments))
	}
}
