package route

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// twoWaferRack builds the canonical TPU-rack hardware: 64 chips over
// two 32-tile wafers.
func twoWaferRack(t *testing.T) *wafer.Rack {
	t.Helper()
	r, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEstablishSameWafer(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(1))
	// Chip 0 = wafer 0 (0,0); chip 11 = wafer 0 (1,3).
	c, err := a.Establish(Request{A: 0, B: 11, Width: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fibers) != 0 {
		t.Fatalf("same-wafer circuit used fibers: %v", c.Fibers)
	}
	if len(c.Segments) != 2 {
		t.Fatalf("L-path segments = %d, want 2", len(c.Segments))
	}
	if c.ReadyAt != phy.ReconfigLatency {
		t.Fatalf("ready at %v, want %v", c.ReadyAt, phy.ReconfigLatency)
	}
	if bw := c.Bandwidth(rack.Config().WavelengthCapacity); bw != 4*224*unit.Gbps {
		t.Fatalf("bandwidth = %v", bw)
	}
	if !c.Link.Feasible {
		t.Fatalf("intra-wafer circuit infeasible: %v", c.Link)
	}
}

func TestEstablishSameRowSingleSegment(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(1))
	// Chips 0 and 7: wafer 0, row 0, cols 0 and 7.
	c, err := a.Establish(Request{A: 0, B: 7, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Segments) != 1 {
		t.Fatalf("same-row segments = %d, want 1", len(c.Segments))
	}
	seg := c.Segments[0]
	if seg.Ref.Orient != wafer.Horizontal || seg.Ref.Span != (wafer.Interval{Lo: 0, Hi: 7}) {
		t.Fatalf("segment = %v", seg)
	}
}

func TestEstablishCrossWafer(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(1))
	// Chip 0 (wafer 0) to chip 63 (wafer 1, tile 31 = row 3, col 7).
	c, err := a.Establish(Request{A: 0, B: 63, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fibers) != 1 {
		t.Fatalf("cross-wafer fibers = %d, want 1", len(c.Fibers))
	}
	if !c.Link.Feasible {
		t.Fatalf("cross-wafer circuit infeasible: %v", c.Link)
	}
	// Fiber loss appears in the breakdown.
	if c.Link.ByKind[phy.LossFiber] == 0 {
		t.Fatal("no fiber loss accounted")
	}
}

func TestEstablishValidation(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, nil)
	if _, err := a.Establish(Request{A: 3, B: 3, Width: 1}, 0); err == nil {
		t.Error("self-circuit accepted")
	}
	if _, err := a.Establish(Request{A: 0, B: 1, Width: 0}, 0); err == nil {
		t.Error("zero width accepted")
	}
}

// TestCircuitsDisjoint is the DESIGN.md invariant: no two established
// circuits share a waveguide segment or fiber.
func TestCircuitsDisjoint(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(2))
	var reqs []Request
	// Dense all-pairs-ish load: chip i to chip (i+13)%64.
	for i := 0; i < 32; i++ {
		reqs = append(reqs, Request{A: i, B: (i + 13) % 64, Width: 1})
	}
	out := a.EstablishBatch(reqs, 0)
	if len(out.Failed) > 0 {
		t.Fatalf("%d requests failed on an empty rack", len(out.Failed))
	}
	cs := out.Circuits
	for i := range cs {
		for j := i + 1; j < len(cs); j++ {
			if cs[i].SharesResources(cs[j]) {
				t.Fatalf("circuits %d and %d share resources", cs[i].ID, cs[j].ID)
			}
		}
	}
}

func TestReleaseRestoresResources(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(3))
	before := rack.TileOf(0).FreeLasers()
	c, err := a.Establish(Request{A: 0, B: 40, Width: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rack.TileOf(0).FreeLasers() != before-3 {
		t.Fatal("lasers not reserved")
	}
	if rack.FibersInUse() != 1 {
		t.Fatalf("fibers in use = %d", rack.FibersInUse())
	}
	a.Release(c)
	if rack.TileOf(0).FreeLasers() != before {
		t.Fatal("lasers not released")
	}
	if rack.FibersInUse() != 0 {
		t.Fatal("fiber not released")
	}
	if n := rack.Wafer(0).AllocatedSpans(); n != 0 {
		t.Fatalf("%d bus spans still allocated", n)
	}
	if len(a.Circuits()) != 0 {
		t.Fatal("circuit still tracked")
	}
}

func TestReleaseUnknownAndDoubleReleaseAreNoOps(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(3))
	c, err := a.Establish(Request{A: 0, B: 40, Width: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := a.Establish(Request{A: 1, B: 41, Width: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() [4]int {
		return [4]int{rack.FibersInUse(), rack.TileOf(keep.A).FreeLasers(), rack.Wafer(0).AllocatedSpans(), rack.Wafer(1).AllocatedSpans()}
	}
	a.Release(c)
	want := snapshot()

	// Double release of the same pointer: a no-op, not corruption. The
	// pre-idempotence allocator would have freed keep-owned resources or
	// panicked here — exactly the class of defect the auditor flags as a
	// conservation violation.
	a.Release(c)
	// A circuit this allocator never established (another allocator's
	// with a coinciding ID, or a fabricated one) must not free anything
	// either.
	a.Release(&Circuit{ID: keep.ID, A: keep.A, B: keep.B, Width: keep.Width})
	a.Release(&Circuit{ID: 99})

	if got := snapshot(); got != want {
		t.Fatalf("occupancy drifted after redundant releases: %v != %v", got, want)
	}
	if len(a.Circuits()) != 1 || a.Circuits()[0] != keep {
		t.Fatal("surviving circuit lost")
	}
	// The surviving circuit still tears down cleanly.
	a.Release(keep)
	if rack.FibersInUse() != 0 || len(a.Circuits()) != 0 {
		t.Fatal("final release incomplete")
	}
}

func TestLaserExhaustionFailsCleanly(t *testing.T) {
	cfg := wafer.DefaultConfig()
	cfg.LasersPerTile = 2
	rack, err := wafer.NewRack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, nil)
	if _, err := a.Establish(Request{A: 0, B: 5, Width: 2}, 0); err != nil {
		t.Fatal(err)
	}
	// Chip 0 has no lasers left.
	if _, err := a.Establish(Request{A: 0, B: 9, Width: 1}, 0); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	// Resources of the failed attempt were rolled back: chips not
	// involved in the exhausted endpoints can still connect.
	if _, err := a.Establish(Request{A: 9, B: 3, Width: 1}, 0); err != nil {
		t.Fatalf("post-rollback establish: %v", err)
	}
}

func TestBudgetCheckRejectsLossyCircuits(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, rng.New(5))
	a.CheckBudget = true
	// Cripple the budget so every circuit is infeasible.
	a.Budget = phy.Budget{LaunchPower: -50, ReceiverSensitivity: -17, Margin: 3}
	if _, err := a.Establish(Request{A: 0, B: 11, Width: 1}, 0); err == nil {
		t.Fatal("infeasible circuit accepted")
	}
	// Rolled back fully.
	if rack.Wafer(0).AllocatedSpans() != 0 {
		t.Fatal("budget-rejected circuit leaked buses")
	}
}

func TestCircuitLossScalesWithDistance(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, nil) // mean losses, deterministic
	near, err := a.Establish(Request{A: 0, B: 1, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	far, err := a.Establish(Request{A: 8, B: 63, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if far.Link.TotalLossDB <= near.Link.TotalLossDB {
		t.Fatalf("far loss %v <= near loss %v", far.Link.TotalLossDB, near.Link.TotalLossDB)
	}
}

func TestFiberRowFallback(t *testing.T) {
	cfg := wafer.DefaultConfig()
	cfg.FibersPerEdge = 1
	rack, err := wafer.NewRack(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(7))
	// Row 0's single fiber gets used...
	if _, err := a.Establish(Request{A: 0, B: 32, Width: 1}, 0); err != nil {
		t.Fatal(err)
	}
	// ...so the next row-0 circuit must fall back to another row.
	c, err := a.Establish(Request{A: 1, B: 33, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fibers[0].Row == 0 {
		t.Fatal("second circuit reused the exhausted row")
	}
}

func TestSwitchesProgrammedOnEstablish(t *testing.T) {
	rack := twoWaferRack(t)
	a := NewAllocator(rack, nil)
	now := unit.Seconds(5)
	c, err := a.Establish(Request{A: 0, B: 11, Width: 1}, now)
	if err != nil {
		t.Fatal(err)
	}
	ses := a.AppendCircuitSwitches(nil, c)
	if len(ses) == 0 {
		t.Fatal("circuit programs no switch")
	}
	for _, se := range ses {
		if got := se.Tile.Switches[se.Switch].Port(); got != se.Port {
			t.Fatalf("switch %d on port %d, circuit needs %d", se.Switch, got, se.Port)
		}
	}
}

// Property: random circuit batches never violate segment/fiber
// disjointness, and releasing everything restores a clean rack.
func TestAllocatorProperty(t *testing.T) {
	f := func(pairs []struct{ A, B uint8 }, seed uint64) bool {
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
		if err != nil {
			return false
		}
		a := NewAllocator(rack, rng.New(seed))
		var circuits []*Circuit
		for _, p := range pairs {
			ca, cb := int(p.A%64), int(p.B%64)
			if ca == cb {
				continue
			}
			c, err := a.Establish(Request{A: ca, B: cb, Width: 1}, 0)
			if err != nil {
				continue // exhaustion is acceptable; leaks are not
			}
			circuits = append(circuits, c)
		}
		for i := range circuits {
			for j := i + 1; j < len(circuits); j++ {
				if circuits[i].SharesResources(circuits[j]) {
					return false
				}
			}
		}
		for _, c := range circuits {
			a.Release(c)
		}
		if rack.FibersInUse() != 0 {
			return false
		}
		for w := 0; w < rack.NumWafers(); w++ {
			if rack.Wafer(w).AllocatedSpans() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRingTopologyTakesShortWayAround(t *testing.T) {
	cfg := wafer.DefaultConfig()
	ring, err := wafer.NewRackTopology(cfg, 4, wafer.RingTopology)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(ring, rng.New(1))
	// Wafer 0 chip 0 to wafer 3 chip 96: counterclockwise over the
	// closing trunk (index 3) is 1 hop instead of 3.
	c, err := a.Establish(Request{A: 0, B: 96, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fibers) != 1 {
		t.Fatalf("ring path fibers = %d, want 1 (short way)", len(c.Fibers))
	}
	if c.Fibers[0].Trunk != 3 {
		t.Fatalf("ring path trunk = %d, want 3 (the closing trunk)", c.Fibers[0].Trunk)
	}
}

func TestChainTopologyHasNoShortcut(t *testing.T) {
	chain, err := wafer.NewRack(wafer.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(chain, rng.New(1))
	c, err := a.Establish(Request{A: 0, B: 96, Width: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fibers) != 3 {
		t.Fatalf("chain path fibers = %d, want 3", len(c.Fibers))
	}
}

func TestRingReducesWorstCaseLoss(t *testing.T) {
	cfg := wafer.DefaultConfig()
	mk := func(topo wafer.Topology) *Circuit {
		rack, err := wafer.NewRackTopology(cfg, 6, topo)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAllocator(rack, nil) // mean losses: deterministic comparison
		c, err := a.Establish(Request{A: 0, B: 5 * 32, Width: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	chain := mk(wafer.Chain)
	ring := mk(wafer.RingTopology)
	if ring.Link.TotalLossDB >= chain.Link.TotalLossDB {
		t.Fatalf("ring loss %v >= chain loss %v for distant wafers",
			ring.Link.TotalLossDB, chain.Link.TotalLossDB)
	}
}

func TestRingDisjointnessStillHolds(t *testing.T) {
	cfg := wafer.DefaultConfig()
	rack, err := wafer.NewRackTopology(cfg, 4, wafer.RingTopology)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(9))
	var reqs []Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, Request{A: i, B: (i + 67) % 128, Width: 1})
	}
	out := a.EstablishBatch(reqs, 0)
	if len(out.Failed) != 0 {
		t.Fatalf("%d failures on an empty ring rack", len(out.Failed))
	}
	for i := range out.Circuits {
		for j := i + 1; j < len(out.Circuits); j++ {
			if out.Circuits[i].SharesResources(out.Circuits[j]) {
				t.Fatal("ring circuits share resources")
			}
		}
	}
}

// Property: circuit loss is monotone in wafer distance along a chain
// cascade (more trunks, stitches and propagation can only add up).
func TestLossMonotoneInWaferDistance(t *testing.T) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(rack, nil) // mean losses
	var last float64 = -1
	for w := 1; w < 6; w++ {
		c, err := a.Establish(Request{A: 0, B: w * 32, Width: 1}, 0)
		if err != nil {
			t.Fatalf("wafer %d: %v", w, err)
		}
		loss := float64(c.Link.TotalLossDB)
		if loss <= last {
			t.Fatalf("loss not increasing at wafer %d: %v <= %v", w, loss, last)
		}
		last = loss
		a.Release(c)
	}
}

// Regression: fiber packing on a ring ranked the rows of both
// directions by the clockwise trunks' occupancy, so rows full on a
// clockwise trunk were dropped from the counterclockwise candidates
// too, and a circuit that routes counterclockwise without packing was
// refused with it.
func TestRingPackFibersRanksEachDirection(t *testing.T) {
	for _, pack := range []bool{false, true} {
		rack, err := wafer.NewRackTopology(wafer.DefaultConfig(), 3, wafer.RingTopology)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAllocator(rack, rng.New(3))
		a.PackFibers = pack
		cfg := rack.Config()
		trunk0Full := func() bool {
			for row := 0; row < cfg.Rows; row++ {
				if rack.FibersInRow(0, row) < cfg.FibersPerEdge {
					return false
				}
			}
			return true
		}
		// Fill every row of trunk 0 with wafer-0 <-> wafer-1 circuits.
		for i := 0; !trunk0Full(); i++ {
			if i >= 2*cfg.Tiles() {
				t.Fatalf("pack=%v: trunk 0 still not full after %d circuits", pack, i)
			}
			tile := i % cfg.Tiles()
			req := Request{A: tile, B: cfg.Tiles() + tile, Width: 1} // the same tile on wafers 0 and 1
			if _, err := a.Establish(req, 0); err != nil {
				t.Fatalf("pack=%v: filling trunk 0: %v", pack, err)
			}
		}
		c, err := a.Establish(Request{A: 1*cfg.Cols + 7, B: 2*cfg.Tiles() + 2*cfg.Cols, Width: 1}, 0)
		if err != nil {
			t.Fatalf("pack=%v: (0,1,7)->(2,2,0) refused: %v", pack, err)
		}
		if len(c.Fibers) != 1 || c.Fibers[0].Trunk != 2 {
			t.Fatalf("pack=%v: fibers %v, want one counterclockwise hop over trunk 2", pack, c.Fibers)
		}
	}
}

// TestEstablishAllocatesOnlyTheCircuit pins the establish floor: with
// plans enumerated afresh on every call, a warm Establish+Release
// allocates exactly one object, the &Circuit it returns. The pairs
// cover a same-wafer circuit, a cross-wafer one going clockwise and
// one going counterclockwise over a ring's closing trunk, each in both
// fiber-row regimes.
func TestEstablishAllocatesOnlyTheCircuit(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"same-wafer", Request{A: 0, B: 13, Width: 1}},
		{"clockwise", Request{A: 0, B: 40, Width: 1}},
		{"counterclockwise", Request{A: 0, B: 96, Width: 2}},
	} {
		for _, pack := range []bool{false, true} {
			rack, err := wafer.NewRackTopology(wafer.DefaultConfig(), 4, wafer.RingTopology)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAllocator(rack, rng.New(3))
			a.PackFibers = pack
			allocs := testing.AllocsPerRun(20, func() {
				c, err := a.Establish(tc.req, 0)
				if err != nil {
					t.Fatalf("%s pack=%v: %v", tc.name, pack, err)
				}
				a.Release(c)
			})
			if allocs != 1 {
				t.Errorf("%s pack=%v: Establish+Release allocates %v times, want 1", tc.name, pack, allocs)
			}
		}
	}
}

// fillFiberRows takes every fiber of the first rows tile rows on every
// trunk, straight from the rack.
func fillFiberRows(tb testing.TB, rack *wafer.Rack, rows int) {
	tb.Helper()
	for tr := 0; tr < rack.NumTrunks(); tr++ {
		for row := 0; row < rows; row++ {
			for rack.FibersFree(tr, row, 1) {
				if _, err := rack.AllocFiber(tr, row); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

// planKeys drains a fresh generator for the pair.
func planKeys(a *Allocator, req Request) []planKey {
	var keys []planKey
	g := a.startPlans(req.A, req.B)
	for k, ok := g.next(); ok; k, ok = g.next() {
		keys = append(keys, k)
	}
	return keys
}

// recordBuilds swaps buildPlan for one that also records the key of
// every plan whose steps get built, until the test ends.
func recordBuilds(t *testing.T) *[]planKey {
	built := new([]planKey)
	build := buildPlan
	buildPlan = func(g *planGen, p *plan) {
		*built = append(*built, p.planKey)
		build(g, p)
	}
	t.Cleanup(func() { buildPlan = build })
	return built
}

// TestEstablishBuildsOnlyWhatItTries counts the plans whose steps an
// Establish builds. An idle pair builds the one plan it places. With
// every fiber row but the last full, the full rows' plans are turned
// down on their keys and only a last-row plan is built. When an
// endpoint is short, or every row is full, only the last plan is
// built, for the failure report.
func TestEstablishBuildsOnlyWhatItTries(t *testing.T) {
	req := Request{A: 0, B: 40, Width: 1}
	rows := wafer.DefaultConfig().Rows
	for _, tc := range []struct {
		name    string
		setup   func(*wafer.Rack)
		ok      bool
		wantRow int // fiber row of every built plan
	}{
		{"idle", func(*wafer.Rack) {}, true, 0},
		{"last row free", func(r *wafer.Rack) { fillFiberRows(t, r, rows-1) }, true, rows - 1},
		{"endpoint short", func(r *wafer.Rack) {
			if err := r.TileOf(req.A).Reserve(r.TileOf(req.A).FreeLasers()); err != nil {
				t.Fatal(err)
			}
		}, false, rows - 1},
		{"every row full", func(r *wafer.Rack) { fillFiberRows(t, r, rows) }, false, rows - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rack := twoWaferRack(t)
			tc.setup(rack)
			a := NewAllocator(rack, rng.New(5))
			keys := planKeys(a, req)
			built := recordBuilds(t)
			c, err := a.Establish(req, 0)
			if (c != nil) != tc.ok {
				t.Fatalf("circuit %v, error %v; want success %v", c, err, tc.ok)
			}
			if len(*built) != 1 {
				t.Fatalf("built %d of %d plans (%+v), want 1", len(*built), len(keys), *built)
			}
			if b := (*built)[0]; b.fiberRow != tc.wantRow {
				t.Errorf("built the plan on fiber row %d, want %d", b.fiberRow, tc.wantRow)
			}
			if !tc.ok && !reflect.DeepEqual((*built)[0], keys[len(keys)-1]) {
				t.Errorf("a failure built %+v, want the last plan %+v", (*built)[0], keys[len(keys)-1])
			}
		})
	}
}

// TestFailedEstablishAllocatesOnlyTheError pins the failure path's
// floor: a cross-wafer Establish on a rack whose every fiber row is
// full allocates exactly one object, its error, and errors.Is on that
// error allocates nothing.
func TestFailedEstablishAllocatesOnlyTheError(t *testing.T) {
	rack := twoWaferRack(t)
	fillFiberRows(t, rack, rack.Config().Rows)
	a := NewAllocator(rack, rng.New(3))
	req := Request{A: 0, B: 40, Width: 1}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = a.Establish(req, 0)
	})
	if allocs != 1 {
		t.Errorf("failed Establish allocates %v times, want 1", allocs)
	}
	is := func() bool { return errors.Is(err, ErrNoPath) && errors.Is(err, wafer.ErrFibersExhausted) }
	if !is() {
		t.Fatalf("error %v does not wrap ErrNoPath and ErrFibersExhausted", err)
	}
	if allocs := testing.AllocsPerRun(20, func() { is() }); allocs != 0 {
		t.Errorf("errors.Is on the error allocates %v times, want 0", allocs)
	}
}
