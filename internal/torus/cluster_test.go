package torus

import (
	"testing"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Shape{4, 4, 4}, 0); err == nil {
		t.Fatal("zero racks accepted")
	}
	if _, err := NewCluster(Shape{0}, 2); err == nil {
		t.Fatal("bad rack shape accepted")
	}
}

func TestTPUv4ClusterScale(t *testing.T) {
	// Paper §4: 64 racks of 4x4x4 = 4096 chips, 16 servers x 4 TPUs
	// per rack.
	c := NewTPUv4Cluster()
	if c.Size() != 4096 {
		t.Fatalf("cluster size = %d, want 4096", c.Size())
	}
	if c.numRacks != 64 || c.RackSize() != 64 {
		t.Fatalf("racks = %d x %d chips", c.numRacks, c.RackSize())
	}
	servers := map[int]int{}
	for chip := 0; chip < c.RackSize(); chip++ {
		servers[c.ServerOf(chip)]++
	}
	if len(servers) != 16 {
		t.Fatalf("servers per rack = %d, want 16", len(servers))
	}
	for s, n := range servers {
		if n != ChipsPerServer {
			t.Fatalf("server %d has %d chips, want %d", s, n, ChipsPerServer)
		}
	}
}

func TestServerChips(t *testing.T) {
	c := NewTPUv4Cluster()
	chip := c.Rack().Index(Coord{1, 1, 2})
	server := c.ServerOf(chip)
	chips := c.ServerChips(server)
	if len(chips) != ChipsPerServer {
		t.Fatalf("server chips = %v", chips)
	}
	found := false
	for _, ch := range chips {
		if ch == chip {
			found = true
		}
		if c.ServerOf(ch) != server {
			t.Fatalf("chip %d in wrong server", ch)
		}
	}
	if !found {
		t.Fatal("ServerChips does not include the probe chip")
	}
}

func TestGlobalIDSplitRoundTrip(t *testing.T) {
	c, _ := NewCluster(Shape{4, 4, 4}, 4)
	for g := 0; g < c.Size(); g++ {
		rack, chip := c.Split(g)
		if back := c.GlobalID(rack, chip); back != g {
			t.Fatalf("round trip %d -> (%d,%d) -> %d", g, rack, chip, back)
		}
	}
}

func TestGlobalIDPanics(t *testing.T) {
	c, _ := NewCluster(Shape{4}, 2)
	for name, fn := range map[string]func(){
		"bad rack":   func() { c.GlobalID(2, 0) },
		"bad chip":   func() { c.GlobalID(0, 4) },
		"bad global": func() { c.Split(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStandaloneRackWrapsToItself(t *testing.T) {
	c, _ := NewCluster(Shape{4, 4, 4}, 2)
	tor := c.Rack()
	edge := c.GlobalID(0, tor.Index(Coord{0, 0, 3}))
	n := c.NeighborGlobal(edge, 2, +1)
	if n != c.GlobalID(0, tor.Index(Coord{0, 0, 0})) {
		t.Fatalf("standalone wrap = %d", n)
	}
}

func TestJoinTwoRacksAlongZ(t *testing.T) {
	// Figure 6b's setting: two racks spliced along Z through the OCS.
	c, _ := NewCluster(Shape{4, 4, 4}, 2)
	if err := c.Join(2, []int{0, 1}); err != nil {
		t.Fatalf("join: %v", err)
	}
	tor := c.Rack()
	// Rack 0's +Z face now reaches rack 1's -Z face.
	a := c.GlobalID(0, tor.Index(Coord{1, 2, 3}))
	b := c.GlobalID(1, tor.Index(Coord{1, 2, 0}))
	if got := c.NeighborGlobal(a, 2, +1); got != b {
		t.Fatalf("spliced +Z neighbor = %d, want %d", got, b)
	}
	// And symmetrically back.
	if got := c.NeighborGlobal(b, 2, -1); got != a {
		t.Fatalf("spliced -Z neighbor = %d, want %d", got, a)
	}
	// Rack 1's +Z face wraps around to rack 0's -Z face (two-rack torus).
	top := c.GlobalID(1, tor.Index(Coord{1, 2, 3}))
	bottom := c.GlobalID(0, tor.Index(Coord{1, 2, 0}))
	if got := c.NeighborGlobal(top, 2, +1); got != bottom {
		t.Fatalf("two-rack wrap = %d, want %d", got, bottom)
	}
	// X and Y stay intra-rack.
	if got := c.NeighborGlobal(a, 0, +1); c.InterRack(Link{From: a, To: got}) {
		t.Fatal("X neighbor crossed racks")
	}
	if !c.InterRack(Link{From: a, To: b}) {
		t.Fatal("Z splice not reported inter-rack")
	}
}

func TestJoinValidation(t *testing.T) {
	c, _ := NewCluster(Shape{4, 4, 4}, 4)
	if err := c.Join(3, []int{0, 1}); err == nil {
		t.Error("bad dimension accepted")
	}
	if err := c.Join(2, []int{0}); err == nil {
		t.Error("single-rack join accepted")
	}
	if err := c.Join(2, []int{0, 0}); err == nil {
		t.Error("duplicate rack accepted")
	}
	if err := c.Join(2, []int{0, 9}); err == nil {
		t.Error("out-of-range rack accepted")
	}
	if err := c.Join(2, []int{0, 1}); err != nil {
		t.Fatalf("valid join rejected: %v", err)
	}
	if err := c.Join(2, []int{1, 2}); err == nil {
		t.Error("re-join of already-joined rack accepted")
	}
}

func TestGlobalLinkDim(t *testing.T) {
	c, _ := NewCluster(Shape{4, 4, 4}, 2)
	if err := c.Join(2, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	tor := c.Rack()
	a := c.GlobalID(0, tor.Index(Coord{1, 2, 3}))
	b := c.GlobalID(1, tor.Index(Coord{1, 2, 0}))
	if got := c.GlobalLinkDim(Link{From: a, To: b}); got != 2 {
		t.Fatalf("splice link dim = %d, want 2", got)
	}
	far := c.GlobalID(1, tor.Index(Coord{1, 2, 1}))
	if got := c.GlobalLinkDim(Link{From: a, To: far}); got != -1 {
		t.Fatalf("non-adjacent dim = %d, want -1", got)
	}
}

// InterRack reports whether a global link crosses racks (and hence
// traverses an OCS and optical fiber rather than on-board wires).
func (c *Cluster) InterRack(l Link) bool {
	ra, _ := c.Split(l.From)
	rb, _ := c.Split(l.To)
	return ra != rb
}

// GlobalLinkDim returns the dimension of a global link, or -1 if the
// chips are not adjacent in the spliced topology.
func (c *Cluster) GlobalLinkDim(l Link) int {
	for d := 0; d < c.rack.Dims(); d++ {
		for _, dir := range [2]int{+1, -1} {
			if c.NeighborGlobal(l.From, d, dir) == l.To {
				return d
			}
		}
	}
	return -1
}

// NeighborGlobal returns the global chip adjacent to g along
// dimension d in direction dir (+1/-1), following OCS splices across
// rack faces. The -d neighbour rack is the one whose next is rack.
func (c *Cluster) NeighborGlobal(g, d, dir int) int {
	rack, chip := c.Split(g)
	co := c.rack.Coord(chip)
	e := c.rack.Extent(d)
	v := co[d] + dir
	switch {
	case v >= e:
		co[d] = 0
		return c.GlobalID(c.next[d][rack], c.rack.Index(co))
	case v < 0:
		co[d] = e - 1
		prev := rack
		for r, n := range c.next[d] {
			if n == rack {
				prev = r
			}
		}
		return c.GlobalID(prev, c.rack.Index(co))
	default:
		co[d] = v
		return c.GlobalID(rack, c.rack.Index(co))
	}
}

// Rack returns the per-rack torus.
func (c *Cluster) Rack() *Torus { return c.rack }
