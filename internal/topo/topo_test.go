package topo

import (
	"testing"

	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// testTopologies returns one small instance of each fabric family.
func testTopologies(t *testing.T) []Topology {
	t.Helper()
	tf, err := NewTorusFabric(torus.Shape{3, 3, 3}, unit.GBps(50))
	if err != nil {
		t.Fatal(err)
	}
	rail, err := NewRail(4, 16, unit.GBps(40), unit.GBps(100))
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewMesh(3, wafer.DefaultConfig(), unit.GBps(200))
	if err != nil {
		t.Fatal(err)
	}
	return []Topology{tf, rail, mesh}
}

// TestPathsAreValid sweeps every (src, dst) pair of each small fabric
// and checks the interface contract: link ids in range, self-paths
// empty, non-self paths non-empty, and AppendPath purely appends.
func TestPathsAreValid(t *testing.T) {
	for _, tp := range testTopologies(t) {
		buf := []int{-7} // sentinel: AppendPath must leave existing entries alone
		for src := 0; src < tp.Endpoints(); src++ {
			for dst := 0; dst < tp.Endpoints(); dst++ {
				buf = tp.AppendPath(buf[:1], src, dst)
				path := buf[1:]
				if buf[0] != -7 {
					t.Fatalf("%s: AppendPath overwrote existing buffer entries", tp.Name())
				}
				if src == dst && len(path) != 0 {
					t.Fatalf("%s: self-path %d->%d has %d links", tp.Name(), src, dst, len(path))
				}
				if src != dst && len(path) == 0 {
					t.Fatalf("%s: empty path %d->%d", tp.Name(), src, dst)
				}
				for _, l := range path {
					if l < 0 || l >= tp.Links() {
						t.Fatalf("%s: path %d->%d uses link %d outside [0, %d)", tp.Name(), src, dst, l, tp.Links())
					}
					if tp.LinkCapacity(l) <= 0 {
						t.Fatalf("%s: link %d has non-positive capacity", tp.Name(), l)
					}
				}
			}
		}
	}
}

// TestPathsAreDeterministic re-derives every path and requires
// identical link sequences.
func TestPathsAreDeterministic(t *testing.T) {
	for _, tp := range testTopologies(t) {
		for src := 0; src < tp.Endpoints(); src += 3 {
			for dst := 0; dst < tp.Endpoints(); dst += 3 {
				a := tp.AppendPath(nil, src, dst)
				b := tp.AppendPath(nil, src, dst)
				if len(a) != len(b) {
					t.Fatalf("%s: path %d->%d length changed between calls", tp.Name(), src, dst)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: path %d->%d link %d changed between calls", tp.Name(), src, dst, i)
					}
				}
			}
		}
	}
}

// TestCapacities checks the netsim capacity map covers exactly the
// dense link-id range.
func TestCapacities(t *testing.T) {
	for _, tp := range testTopologies(t) {
		caps := Capacities(tp)
		if len(caps) != tp.Links() {
			t.Fatalf("%s: capacity map has %d entries, want %d", tp.Name(), len(caps), tp.Links())
		}
		for l := 0; l < tp.Links(); l++ {
			if caps[l] != tp.LinkCapacity(l) {
				t.Fatalf("%s: capacity map disagrees with LinkCapacity on link %d", tp.Name(), l)
			}
		}
	}
}

// TestRailLayout pins the rail fabric's documented link-id layout and
// path shapes.
func TestRailLayout(t *testing.T) {
	r, err := NewRail(2, 3, unit.GBps(40), unit.GBps(100))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Endpoints(), 6; got != want {
		t.Fatalf("Endpoints() = %d, want %d", got, want)
	}
	if got, want := r.Links(), 15; got != want {
		t.Fatalf("Links() = %d, want %d", got, want)
	}
	if got := r.Endpoint(1, 2); got != 5 {
		t.Fatalf("Endpoint(1,2) = %d, want 5 (rail-major)", got)
	}
	// Same rail: up(src), down(dst).
	got := r.AppendPath(nil, r.Endpoint(0, 0), r.Endpoint(0, 2))
	want := []int{0, 6 + 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("same-rail path = %v, want %v", got, want)
	}
	// Cross rail: bus(s1), up(r2, s1), down(dst).
	got = r.AppendPath(nil, r.Endpoint(0, 1), r.Endpoint(1, 2))
	want = []int{12 + 1, r.Endpoint(1, 1), 6 + r.Endpoint(1, 2)}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("cross-rail path = %v, want %v", got, want)
	}
	// Bus links carry the bus bandwidth, NIC links the rail bandwidth.
	if r.LinkCapacity(12) != unit.GBps(100) || r.LinkCapacity(0) != unit.GBps(40) {
		t.Fatal("rail link capacities do not follow the documented layout")
	}
}

// TestMeshLayout pins the mesh's trunk-id packing and path shapes.
func TestMeshLayout(t *testing.T) {
	cfg := wafer.DefaultConfig()
	m, err := NewMesh(3, cfg, unit.GBps(200))
	if err != nil {
		t.Fatal(err)
	}
	tiles := cfg.Tiles()
	e := 3 * tiles
	if got, want := m.Links(), 2*e+6; got != want {
		t.Fatalf("Links() = %d, want %d", got, want)
	}
	// Trunk ids pack ordered pairs densely, skipping self-pairs.
	seen := map[int]bool{}
	for w1 := 0; w1 < 3; w1++ {
		for w2 := 0; w2 < 3; w2++ {
			if w1 == w2 {
				continue
			}
			id := m.Trunk(w1, w2)
			if id < 2*e || id >= m.Links() {
				t.Fatalf("Trunk(%d,%d) = %d outside trunk range", w1, w2, id)
			}
			if seen[id] {
				t.Fatalf("Trunk(%d,%d) = %d collides with another pair", w1, w2, id)
			}
			seen[id] = true
		}
	}
	// Same wafer: up, down. Cross wafer: up, trunk, down.
	if p := m.AppendPath(nil, 0, 1); len(p) != 2 || p[0] != 0 || p[1] != e+1 {
		t.Fatalf("same-wafer path = %v", p)
	}
	src, dst := 1, 2*tiles+4
	p := m.AppendPath(nil, src, dst)
	if len(p) != 3 || p[0] != src || p[1] != m.Trunk(0, 2) || p[2] != e+dst {
		t.Fatalf("cross-wafer path = %v", p)
	}
	if m.LinkCapacity(0) != cfg.TileEgress() {
		t.Fatal("tile links must carry TileEgress capacity")
	}
	if m.LinkCapacity(m.Trunk(0, 1)) != unit.GBps(200) {
		t.Fatal("trunk links must carry the trunk bandwidth")
	}
}

// TestTorusFabricMatchesDOR checks the adapter's paths are exactly
// the torus's dimension-ordered routes.
func TestTorusFabricMatchesDOR(t *testing.T) {
	f, err := NewTorusFabric(torus.Shape{4, 4}, unit.GBps(50))
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < f.Endpoints(); src++ {
		for dst := 0; dst < f.Endpoints(); dst++ {
			ids := f.AppendPath(nil, src, dst)
			raw := f.t.DORPath(src, dst)
			if len(ids) != len(raw) {
				t.Fatalf("path %d->%d: %d ids vs %d torus links", src, dst, len(ids), len(raw))
			}
			for i, id := range ids {
				if f.links[id] != raw[i] {
					t.Fatalf("path %d->%d hop %d: id %d maps to %v, want %v", src, dst, i, id, f.links[id], raw[i])
				}
			}
		}
	}
}

// TestConstructorValidation checks bad geometry is rejected.
func TestConstructorValidation(t *testing.T) {
	if _, err := NewRail(0, 4, unit.GBps(1), unit.GBps(1)); err == nil {
		t.Error("NewRail accepted zero rails")
	}
	if _, err := NewRail(2, 2, 0, unit.GBps(1)); err == nil {
		t.Error("NewRail accepted zero rail bandwidth")
	}
	if _, err := NewMesh(0, wafer.DefaultConfig(), unit.GBps(1)); err == nil {
		t.Error("NewMesh accepted zero wafers")
	}
	if _, err := NewMesh(2, wafer.Config{}, unit.GBps(1)); err == nil {
		t.Error("NewMesh accepted an invalid wafer config")
	}
	if _, err := NewTorusFabric(torus.Shape{}, unit.GBps(1)); err == nil {
		t.Error("NewTorusFabric accepted an empty shape")
	}
	if _, err := NewTorusFabric(torus.Shape{2, 2}, 0); err == nil {
		t.Error("NewTorusFabric accepted zero bandwidth")
	}
}
