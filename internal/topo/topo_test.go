package topo

import (
	"testing"

	"lightpath/internal/unit"
)

// testRail returns a small rail fabric.
func testRail(t *testing.T) *Rail {
	t.Helper()
	rail, err := NewRail(4, 16, unit.GBps(40), unit.GBps(100))
	if err != nil {
		t.Fatal(err)
	}
	return rail
}

// TestPathsAreValid sweeps every (src, dst) pair of a small rail
// fabric and checks the path contract: link ids in range, self-paths
// empty, non-self paths non-empty, and AppendPath purely appends.
func TestPathsAreValid(t *testing.T) {
	r := testRail(t)
	buf := []int{-7} // sentinel: AppendPath must leave existing entries alone
	for src := 0; src < r.Endpoints(); src++ {
		for dst := 0; dst < r.Endpoints(); dst++ {
			buf = r.AppendPath(buf[:1], src, dst)
			path := buf[1:]
			if buf[0] != -7 {
				t.Fatal("AppendPath overwrote existing buffer entries")
			}
			if src == dst && len(path) != 0 {
				t.Fatalf("self-path %d->%d has %d links", src, dst, len(path))
			}
			if src != dst && len(path) == 0 {
				t.Fatalf("empty path %d->%d", src, dst)
			}
			for _, l := range path {
				if l < 0 || l >= r.Links() {
					t.Fatalf("path %d->%d uses link %d outside [0, %d)", src, dst, l, r.Links())
				}
				if r.LinkCapacity(l) <= 0 {
					t.Fatalf("link %d has non-positive capacity", l)
				}
			}
		}
	}
}

// TestPathsAreDeterministic re-derives every path and requires
// identical link sequences.
func TestPathsAreDeterministic(t *testing.T) {
	r := testRail(t)
	for src := 0; src < r.Endpoints(); src += 3 {
		for dst := 0; dst < r.Endpoints(); dst += 3 {
			a := r.AppendPath(nil, src, dst)
			b := r.AppendPath(nil, src, dst)
			if len(a) != len(b) {
				t.Fatalf("path %d->%d length changed between calls", src, dst)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("path %d->%d link %d changed between calls", src, dst, i)
				}
			}
		}
	}
}

// TestCapacities checks the netsim capacity map covers exactly the
// dense link-id range.
func TestCapacities(t *testing.T) {
	r := testRail(t)
	caps := r.Capacities()
	if len(caps) != r.Links() {
		t.Fatalf("capacity map has %d entries, want %d", len(caps), r.Links())
	}
	for l := 0; l < r.Links(); l++ {
		if caps[l] != r.LinkCapacity(l) {
			t.Fatalf("capacity map disagrees with LinkCapacity on link %d", l)
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

// TestConstructorValidation checks bad geometry is rejected.
func TestConstructorValidation(t *testing.T) {
	if _, err := NewRail(0, 4, unit.GBps(1), unit.GBps(1)); err == nil {
		t.Error("NewRail accepted zero rails")
	}
	if _, err := NewRail(2, 2, 0, unit.GBps(1)); err == nil {
		t.Error("NewRail accepted zero rail bandwidth")
	}
}
