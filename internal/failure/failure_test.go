package failure

import (
	"errors"
	"testing"

	"lightpath/internal/alloc"
	"lightpath/internal/collective"
	"lightpath/internal/phy"
	"lightpath/internal/torus"
)

// fig6aFabric builds the Figure 6a analysis fabric (one rack).
func fig6aFabric(t *testing.T) (*Fabric, *alloc.Fig6aScenario) {
	t.Helper()
	sc, err := alloc.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(sc.Torus, []*torus.Allocation{sc.Alloc}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return f, sc
}

// fig6bFabric builds the Figure 6b analysis fabric (two racks).
func fig6bFabric(t *testing.T) (*Fabric, *alloc.Fig6bScenario) {
	t.Helper()
	sc, err := alloc.Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(sc.RackTorus, sc.Allocs, sc.SpliceDim)
	if err != nil {
		t.Fatal(err)
	}
	return f, sc
}

func TestNewFabricValidation(t *testing.T) {
	tor := torus.New(torus.TPUv4RackShape)
	a, _ := torus.NewAllocation(tor, nil)
	if _, err := NewFabric(tor, nil, 2); err == nil {
		t.Error("no racks accepted")
	}
	if _, err := NewFabric(tor, []*torus.Allocation{a}, 5); err == nil {
		t.Error("bad splice dim accepted")
	}
}

func TestGlobalSplitRoundTrip(t *testing.T) {
	f, _ := fig6bFabric(t)
	for g := 0; g < f.Size(); g++ {
		rack, chip := f.Split(g)
		if f.Global(rack, chip) != g {
			t.Fatalf("round trip failed at %d", g)
		}
	}
	if len(f.allocs) != 2 || f.t.Size() != 64 || f.Size() != 128 {
		t.Fatalf("geometry: %d racks x %d", len(f.allocs), f.t.Size())
	}
}

func TestNeighborsUnspliced(t *testing.T) {
	f, _ := fig6aFabric(t)
	// Interior chip: 6 neighbors, all in rack 0.
	g := f.Global(0, f.t.Index(torus.Coord{1, 1, 1}))
	nbs := f.Neighbors(g)
	if len(nbs) != 6 {
		t.Fatalf("degree = %d, want 6", len(nbs))
	}
	// Top-face chip wraps to its own rack's bottom face.
	top := f.Global(0, f.t.Index(torus.Coord{0, 0, 3}))
	bottom := f.Global(0, f.t.Index(torus.Coord{0, 0, 0}))
	found := false
	for _, nb := range f.Neighbors(top) {
		if nb == bottom {
			found = true
		}
	}
	if !found {
		t.Fatal("self-wrap neighbor missing")
	}
}

func TestSpliceColumn(t *testing.T) {
	f, _ := fig6bFabric(t)
	busy := torus.LinkUse{}
	col := f.t.Index(torus.Coord{2, 0, 0}) // a rack-2 free column
	if err := f.SpliceColumn(0, 1, col, busy); err != nil {
		t.Fatal(err)
	}
	// Rack 0's top face on that column now reaches rack 1's bottom.
	top := f.Global(0, f.t.Index(torus.Coord{2, 0, 3}))
	want := f.Global(1, f.t.Index(torus.Coord{2, 0, 0}))
	found := false
	for _, nb := range f.Neighbors(top) {
		if nb == want {
			found = true
		}
	}
	if !found {
		t.Fatal("spliced neighbor missing")
	}
	// Double splice rejected.
	if err := f.SpliceColumn(0, 1, col, busy); err == nil {
		t.Fatal("double splice accepted")
	}
	// Self-splice rejected.
	if err := f.SpliceColumn(0, 0, col+1, busy); err == nil {
		t.Fatal("self splice accepted")
	}
}

func TestSpliceRejectedWhenWrapBusy(t *testing.T) {
	f, _ := fig6bFabric(t)
	// Rack 2's Slice-1 runs Z rings on columns x in {0,1}: their wrap
	// links are busy, so splicing them must fail (the paper's purple
	// line conflict).
	busy := f.BusyLinks()
	col := f.t.Index(torus.Coord{0, 0, 0})
	if err := f.SpliceColumn(0, 1, col, busy); err == nil {
		t.Fatal("splice through a live Z ring accepted")
	}
}

func TestBusyLinksFig6a(t *testing.T) {
	f, sc := fig6aFabric(t)
	busy := f.BusyLinks()
	// Slice-4 (4x4x2) runs X and Y bucket rings at z in {0,1}: the
	// link (0,0,0)->(1,0,0) is busy.
	l := torus.Link{
		From: f.Global(0, sc.Torus.Index(torus.Coord{0, 0, 0})),
		To:   f.Global(0, sc.Torus.Index(torus.Coord{1, 0, 0})),
	}
	if busy[l] == 0 {
		t.Fatal("Slice-4 X ring link not busy")
	}
	// No Z links are busy anywhere (no slice runs Z rings).
	for g := 0; g < f.Size(); g++ {
		_, chip := f.Split(g)
		co := sc.Torus.Coord(chip)
		co[2] = (co[2] + 1) % 4
		zlink := torus.Link{From: g, To: f.Global(0, sc.Torus.Index(co))}
		if busy[zlink] > 0 {
			t.Fatalf("Z link %v busy", zlink)
		}
	}
}

func TestRepairEndpointsFig6a(t *testing.T) {
	f, sc := fig6aFabric(t)
	eps, err := f.RepairEndpoints(0, sc.FailedChip)
	if err != nil {
		t.Fatal(err)
	}
	// Interior chip of a 2-D bucket slice: one X ring and one Y ring
	// broken.
	if len(eps) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(eps))
	}
	tor := sc.Torus
	wantPairs := map[[2]int]bool{
		{tor.Index(torus.Coord{0, 1, 2}), tor.Index(torus.Coord{2, 1, 2})}: true, // X ring
		{tor.Index(torus.Coord{1, 0, 2}), tor.Index(torus.Coord{1, 2, 2})}: true, // Y ring
	}
	for _, ep := range eps {
		if !wantPairs[[2]int{ep.Pred, ep.Succ}] {
			t.Fatalf("unexpected endpoint pair %+v", ep)
		}
	}
}

func TestRepairEndpointsErrors(t *testing.T) {
	f, sc := fig6aFabric(t)
	if _, err := f.RepairEndpoints(0, sc.FreeChips[0]); err == nil {
		t.Fatal("free chip repair accepted")
	}
}

// TestFig6aElectricalRepairImpossible is experiment E7: in the
// Figure 6a rack, no free chip can replace the failed one without
// congestion on the electrical torus ("replacing the failed chip
// (red) with one of the free chips (blue) is impossible without
// congestion").
func TestFig6aElectricalRepairImpossible(t *testing.T) {
	f, sc := fig6aFabric(t)
	plan, err := f.ElectricalRepair(0, sc.FailedChip, 8)
	if !errors.Is(err, ErrNoCongestionFreeRepair) {
		t.Fatalf("err = %v, want ErrNoCongestionFreeRepair", err)
	}
	// The diagnostic plan exists but is congested.
	if plan == nil {
		t.Fatal("no diagnostic plan found")
	}
	if plan.Congestion == 0 {
		t.Fatal("diagnostic plan claims zero congestion")
	}
}

// TestFig6bElectricalRepairImpossible is experiment E8: replacing the
// failed chip with a free chip in rack 2 congests (the paper's purple
// line) — no congestion-free plan exists even with cross-rack OCS
// splicing available.
func TestFig6bElectricalRepairImpossible(t *testing.T) {
	f, sc := fig6bFabric(t)
	// Pre-splice the free columns of rack 2 toward rack 1, giving the
	// electrical repair its best chance.
	busy := f.BusyLinks()
	for _, freeChip := range sc.FreeChips {
		col := sc.RackTorus.Coord(freeChip)
		col[2] = 0
		_ = f.SpliceColumn(0, 1, sc.RackTorus.Index(col), busy)
	}
	plan, err := f.ElectricalRepair(0, sc.FailedChip, 16)
	if !errors.Is(err, ErrNoCongestionFreeRepair) {
		t.Fatalf("err = %v, want ErrNoCongestionFreeRepair", err)
	}
	if plan != nil && plan.Congestion == 0 {
		t.Fatal("plan claims zero congestion")
	}
}

// TestRepairableScenario sanity-checks the search itself: with a free
// chip adjacent to the broken rings and no interfering tenants, the
// electrical repair succeeds congestion-free.
func TestRepairableScenario(t *testing.T) {
	tor := torus.New(torus.TPUv4RackShape)
	victim := &torus.Slice{Name: "v", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 1}}
	a, err := torus.NewAllocation(tor, []*torus.Slice{victim})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(tor, []*torus.Allocation{a}, 2)
	if err != nil {
		t.Fatal(err)
	}
	failed := tor.Index(torus.Coord{1, 1, 0})
	plan, err := f.ElectricalRepair(0, failed, 0)
	if err != nil {
		t.Fatalf("repair in an otherwise empty rack failed: %v", err)
	}
	if plan.Congestion != 0 {
		t.Fatalf("congestion = %d, want 0", plan.Congestion)
	}
	if len(plan.Paths) != 4 {
		t.Fatalf("paths = %d, want 4 (two rings x two legs)", len(plan.Paths))
	}
	// Paths never touch the failed chip.
	for _, p := range plan.Paths {
		for _, l := range p.Links {
			if f.Failed(l.From) || f.Failed(l.To) {
				t.Fatal("repair path crosses the failed chip")
			}
		}
	}
}

// TestFig7OpticalRepair is experiment E9: the same Figure 6a failure
// repairs optically — circuits from the broken-ring neighbors to a
// free chip, on disjoint waveguides, ready one reconfiguration delay
// after establishment.
func TestFig7OpticalRepair(t *testing.T) {
	f, sc := fig6aFabric(t)
	plan, err := f.OpticalRepair(0, sc.FailedChip, 4, 0, 42)
	if err != nil {
		t.Fatalf("optical repair failed: %v", err)
	}
	// Two broken rings with distinct neighbors: 4 circuits.
	if len(plan.Circuits) != 4 {
		t.Fatalf("circuits = %d, want 4", len(plan.Circuits))
	}
	if !plan.Disjoint() {
		t.Fatal("repair circuits share resources")
	}
	if plan.ReadyAt != phy.ReconfigLatency {
		t.Fatalf("ready at %v, want %v", plan.ReadyAt, phy.ReconfigLatency)
	}
	// The replacement is one of the scenario's free chips.
	found := false
	for _, fc := range sc.FreeChips {
		if plan.Replacement == f.Global(0, fc) {
			found = true
		}
	}
	if !found {
		t.Fatalf("replacement %d is not a free chip", plan.Replacement)
	}
	// Repair bandwidth at width 4 ~ 896 Gbps, comparable to a TPU
	// dimension port.
	if bw := plan.RepairBandwidth(); bw != 4*phy.WavelengthCapacity {
		t.Fatalf("repair bandwidth = %v", bw)
	}
}

// TestFig6bOpticalRepair: the cross-rack failure also repairs
// optically — fibers between wafers carry the circuits.
func TestFig6bOpticalRepair(t *testing.T) {
	f, sc := fig6bFabric(t)
	plan, err := f.OpticalRepair(0, sc.FailedChip, 2, 0, 43)
	if err != nil {
		t.Fatalf("cross-rack optical repair failed: %v", err)
	}
	if !plan.Disjoint() {
		t.Fatal("circuits share resources")
	}
	// The victim is in rack 1 (wafers 0-1) and the replacement in
	// rack 2 (wafers 2-3): the circuits must use fibers.
	usedFiber := false
	for _, c := range plan.Circuits {
		if len(c.Fibers) > 0 {
			usedFiber = true
		}
	}
	if !usedFiber {
		t.Fatal("cross-rack repair used no fibers")
	}
}

// TestBlastRadius is experiment E10: rack-granularity electrical
// fault handling impacts 64 chips; optical repair impacts only the
// 4-chip server — a 16x shrinkage.
func TestBlastRadius(t *testing.T) {
	c := torus.NewTPUv4Cluster()
	g := c.GlobalID(17, 33)
	elec := ElectricalBlastRadius(c, g)
	opt := OpticalBlastRadius(c, g)
	if len(elec) != 64 {
		t.Fatalf("electrical blast = %d chips, want 64", len(elec))
	}
	if len(opt) != 4 {
		t.Fatalf("optical blast = %d chips, want 4", len(opt))
	}
	// The failed chip is inside both radii.
	inElec, inOpt := false, false
	for _, ch := range elec {
		if ch == g {
			inElec = true
		}
	}
	for _, ch := range opt {
		if ch == g {
			inOpt = true
		}
	}
	if !inElec || !inOpt {
		t.Fatal("failed chip outside its own blast radius")
	}
}

func TestSweepBlastRadius(t *testing.T) {
	c := torus.NewTPUv4Cluster()
	stats := SweepBlastRadius(c)
	if stats.Failures != 4096 {
		t.Fatalf("failures = %d", stats.Failures)
	}
	if stats.ElectricalMean != 64 || stats.OpticalMean != 4 {
		t.Fatalf("means = %v / %v", stats.ElectricalMean, stats.OpticalMean)
	}
	if stats.Ratio != 16 {
		t.Fatalf("ratio = %v, want 16", stats.Ratio)
	}
}

func TestOwnerAndFreeChips(t *testing.T) {
	f, sc := fig6aFabric(t)
	if f.Owner(f.Global(0, sc.FailedChip)) != sc.Victim {
		t.Fatal("owner mismatch")
	}
	free := f.FreeChips()
	if len(free) != 8 {
		t.Fatalf("free = %d", len(free))
	}
	// Failing a free chip removes it from the pool.
	f.Fail(free[0])
	if len(f.FreeChips()) != 7 {
		t.Fatal("failed free chip still in pool")
	}
}

// TestRepairedRingCollectiveCorrect ties the repair to the collective
// machinery end to end: after replacing the failed chip in the victim's
// broken rings with the optical plan's replacement, the repaired ring
// still computes a mathematically correct AllReduce over the surviving
// membership.
func TestRepairedRingCollectiveCorrect(t *testing.T) {
	f, sc := fig6aFabric(t)
	plan, err := f.OpticalRepair(0, sc.FailedChip, 4, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	repl := plan.Replacement // global == local in a 1-rack fabric

	// Rebuild the victim's broken X ring with the replacement spliced
	// in where the failed chip sat.
	eps, err := f.RepairEndpoints(0, sc.FailedChip)
	if err != nil {
		t.Fatal(err)
	}
	tor := sc.Torus
	xRing := []int{}
	for _, chip := range tor.Line(sc.FailedChip, 0) {
		if chip == sc.FailedChip {
			xRing = append(xRing, repl)
		} else {
			xRing = append(xRing, chip)
		}
	}
	// The repair endpoints bracket the replacement in ring order.
	foundBracket := false
	for _, ep := range eps {
		for i, c := range xRing {
			n := len(xRing)
			if c == repl && xRing[(i-1+n)%n] == ep.Pred && xRing[(i+1)%n] == ep.Succ {
				foundBracket = true
			}
		}
	}
	if !foundBracket {
		t.Fatal("replacement not bracketed by any endpoint pair")
	}

	// Run a real AllReduce over the repaired ring and check the sums.
	const n = 64
	sched, err := collective.RingAllReduce("repaired", xRing, n, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := collective.NewState(xRing, n, func(chip, i int) float64 {
		return float64(chip*100 + i)
	})
	ref := collective.ReduceAcross(st, xRing, n)
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	var ip collective.Interp
	for si := range sched.Steps {
		if err := ip.ExecuteStep(st, sched, si); err != nil {
			t.Fatal(err)
		}
	}
	if err := collective.CheckAllReduce(st, xRing, ref); err != nil {
		t.Fatal(err)
	}
}
