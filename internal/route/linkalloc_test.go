package route

import (
	"testing"

	"lightpath/internal/netsim"
	"lightpath/internal/topo"
	"lightpath/internal/unit"
)

func testRail(t *testing.T) *topo.Rail {
	t.Helper()
	r, err := topo.NewRail(2, 4, unit.GBps(40), unit.GBps(100))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLinkAllocatorPlacement checks flows materialize in placement
// order with the topology's paths and correct link loads.
func TestLinkAllocatorPlacement(t *testing.T) {
	rail := testRail(t)
	a := NewLinkAllocator(rail)
	a.Place(rail.Endpoint(0, 0), rail.Endpoint(0, 1), 1*unit.MB)
	a.Place(rail.Endpoint(0, 2), rail.Endpoint(1, 3), 2*unit.MB)
	a.Place(rail.Endpoint(0, 0), rail.Endpoint(0, 1), 3*unit.MB)

	if a.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", a.Len())
	}
	flows := a.Flows()
	if len(flows) != 3 {
		t.Fatalf("Flows() returned %d flows, want 3", len(flows))
	}
	for i, want := range []unit.Bytes{1 * unit.MB, 2 * unit.MB, 3 * unit.MB} {
		if flows[i].Bytes != want {
			t.Fatalf("flow %d bytes = %v, want %v", i, flows[i].Bytes, want)
		}
	}
	// Paths must equal the topology's own.
	for i, pair := range [][2]int{
		{rail.Endpoint(0, 0), rail.Endpoint(0, 1)},
		{rail.Endpoint(0, 2), rail.Endpoint(1, 3)},
		{rail.Endpoint(0, 0), rail.Endpoint(0, 1)},
	} {
		want := rail.AppendPath(nil, pair[0], pair[1])
		if len(flows[i].Via) != len(want) {
			t.Fatalf("flow %d path length %d, want %d", i, len(flows[i].Via), len(want))
		}
		for j := range want {
			if flows[i].Via[j] != want[j] {
				t.Fatalf("flow %d hop %d = %d, want %d", i, j, flows[i].Via[j], want[j])
			}
		}
	}
	// Two flows share up(0,0) and down(0,1); the cross-rail flow loads
	// its bus once.
	if got := a.Load(rail.Endpoint(0, 0)); got != 2 {
		t.Fatalf("Load(up src) = %d, want 2", got)
	}
	if link, n := a.MaxLoad(); n != 2 || link != rail.Endpoint(0, 0) {
		t.Fatalf("MaxLoad() = (%d, %d), want (%d, 2)", link, n, rail.Endpoint(0, 0))
	}
	busLink := 2*rail.Endpoints() + 2
	if got := a.Load(busLink); got != 1 {
		t.Fatalf("Load(bus s=2) = %d, want 1", got)
	}
}

// TestLinkAllocatorSolves runs the placed flows through the fluid
// solver end to end.
func TestLinkAllocatorSolves(t *testing.T) {
	rail := testRail(t)
	a := NewLinkAllocator(rail)
	const servers = 4 // testRail's
	for s := 0; s < servers; s++ {
		a.Place(rail.Endpoint(0, s), rail.Endpoint(0, (s+1)%servers), 8*unit.MB)
	}
	var sim netsim.Sim[int]
	res, err := sim.Run(a.Flows(), a.Capacities())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v, want > 0", res.Makespan)
	}
	for i, end := range res.FlowEnd {
		if end <= 0 {
			t.Fatalf("flow %d never completed", i)
		}
	}
}

// TestLinkAllocatorReset checks Reset drops placements and loads but
// keeps the allocator usable.
func TestLinkAllocatorReset(t *testing.T) {
	rail := testRail(t)
	a := NewLinkAllocator(rail)
	a.Place(0, 1, 1*unit.MB)
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len() after Reset = %d", a.Len())
	}
	if link, n := a.MaxLoad(); n != 0 || link != -1 {
		t.Fatalf("MaxLoad() after Reset = (%d, %d), want (-1, 0)", link, n)
	}
	a.Place(0, 1, 2*unit.MB)
	if flows := a.Flows(); len(flows) != 1 || flows[0].Bytes != 2*unit.MB {
		t.Fatalf("post-Reset placement corrupted: %v", flows)
	}
}

// TestLinkAllocatorArenaStability checks Via slices stay valid as the
// arena grows: materialization happens after all placements, so paths
// recorded early must still read back correctly.
func TestLinkAllocatorArenaStability(t *testing.T) {
	rail := testRail(t)
	a := NewLinkAllocator(rail)
	n := 10000
	for i := 0; i < n; i++ {
		a.Place(i%rail.Endpoints(), (i+3)%rail.Endpoints(), unit.Bytes(i+1))
	}
	flows := a.Flows()
	for i := 0; i < n; i++ {
		want := rail.AppendPath(nil, i%rail.Endpoints(), (i+3)%rail.Endpoints())
		if len(flows[i].Via) != len(want) {
			t.Fatalf("flow %d path length drifted", i)
		}
		for j := range want {
			if flows[i].Via[j] != want[j] {
				t.Fatalf("flow %d hop %d drifted after arena growth", i, j)
			}
		}
	}
}

// TestOversubscribedLinks pins the congestion census.
func TestOversubscribedLinks(t *testing.T) {
	rail := testRail(t)
	a := NewLinkAllocator(rail)
	// Five flows into one NIC's down link (capacity 40 GB/s): at
	// 10 GB/s per flow that link is oversubscribed, its sources' up
	// links are not.
	for s := 0; s < 4; s++ {
		a.Place(rail.Endpoint(0, s), rail.Endpoint(1, 0), 1*unit.MB)
	}
	a.Place(rail.Endpoint(1, 1), rail.Endpoint(1, 0), 1*unit.MB)
	if got := a.OversubscribedLinks(unit.GBps(10)); got != 1 {
		t.Fatalf("OversubscribedLinks(10 GB/s) = %d, want 1", got)
	}
	if got := a.OversubscribedLinks(unit.GBps(1)); got != 0 {
		t.Fatalf("OversubscribedLinks(1 GB/s) = %d, want 0", got)
	}
}

// Reset drops every placement, keeping the arena capacity for reuse.
func (a *LinkAllocator) Reset() {
	a.arena = a.arena[:0]
	a.starts = a.starts[:1]
	a.bytes = a.bytes[:0]
	for l := range a.load {
		a.load[l] = 0
	}
	a.flows = nil
}

// Load returns the number of placed flows crossing a link.
func (a *LinkAllocator) Load(link int) int { return a.load[link] }
