package torus

import (
	"math"
	"sort"
	"testing"
)

// fig5bAllocation builds the paper's Figure 5b rack: a 4x4x4 rack
// holding Slice-4 (4x4x2), Slice-3 (4x4x1), and Slice-1/Slice-2
// (4x2x1 each) — 64 chips, fully allocated.
func fig5bAllocation(t *testing.T) (*Torus, *Allocation) {
	t.Helper()
	tor := rack()
	slices := []*Slice{
		{Name: "Slice-1", Origin: Coord{0, 0, 3}, Shape: Shape{4, 2, 1}},
		{Name: "Slice-2", Origin: Coord{0, 2, 3}, Shape: Shape{4, 2, 1}},
		{Name: "Slice-3", Origin: Coord{0, 0, 2}, Shape: Shape{4, 4, 1}},
		{Name: "Slice-4", Origin: Coord{0, 0, 0}, Shape: Shape{4, 4, 2}},
	}
	a, err := NewAllocation(tor, slices)
	if err != nil {
		t.Fatalf("allocation: %v", err)
	}
	return tor, a
}

func TestNewAllocationRejectsOverlap(t *testing.T) {
	tor := rack()
	_, err := NewAllocation(tor, []*Slice{
		{Name: "a", Origin: Coord{0, 0, 0}, Shape: Shape{4, 2, 1}},
		{Name: "b", Origin: Coord{0, 1, 0}, Shape: Shape{4, 2, 1}},
	})
	if err == nil {
		t.Fatal("overlapping slices accepted")
	}
}

func TestNewAllocationRejectsInvalidSlice(t *testing.T) {
	tor := rack()
	_, err := NewAllocation(tor, []*Slice{
		{Name: "bad", Origin: Coord{0, 0}, Shape: Shape{4, 2, 1}},
	})
	if err == nil {
		t.Fatal("invalid slice accepted")
	}
}

func TestOwnerAndFree(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s", Origin: Coord{0, 0, 0}, Shape: Shape{4, 4, 2}}
	a, err := NewAllocation(tor, []*Slice{s})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Owner(tor.Index(Coord{1, 1, 0})); got != 0 {
		t.Fatalf("owner = %d, want 0", got)
	}
	if got := a.Owner(tor.Index(Coord{1, 1, 3})); got != FreeChip {
		t.Fatalf("owner of free chip = %d", got)
	}
	if got := a.OwnerSlice(tor.Index(Coord{0, 0, 0})); got != s {
		t.Fatal("OwnerSlice mismatch")
	}
	if got := a.OwnerSlice(tor.Index(Coord{0, 0, 3})); got != nil {
		t.Fatal("OwnerSlice of free chip should be nil")
	}
	if free := a.FreeChips(); len(free) != 32 {
		t.Fatalf("free chips = %d, want 32", len(free))
	}
	if a.Torus() != tor || len(a.Slices()) != 1 {
		t.Fatal("accessors broken")
	}
}

// TestFig5bUsableDims reproduces the paper's §4.1 analysis verbatim:
//
//   - Slice-1 and Slice-2 "share both the Y and Z dimensions with
//     other slices and can only execute the X dimensional ring" —
//     usable dims {X}.
//   - Slice-3 (Table 2, D=2) runs rings in X and Y; Z is shared —
//     usable dims {X, Y}.
//   - Slice-4 spans X and Y; its Z extent (2 of 4) shares the Z lines
//     with Slices 1-3 — usable dims {X, Y}.
func TestFig5bUsableDims(t *testing.T) {
	_, a := fig5bAllocation(t)
	want := map[string][]int{
		"Slice-1": {0},
		"Slice-2": {0},
		"Slice-3": {0, 1},
		"Slice-4": {0, 1},
	}
	for si, s := range a.Slices() {
		got := a.UsableDims(si, false)
		w := want[s.Name]
		if len(got) != len(w) {
			t.Fatalf("%s usable dims = %v, want %v", s.Name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s usable dims = %v, want %v", s.Name, got, w)
			}
		}
	}
}

// TestFig5cUtilization reproduces Figure 5c: electrically, Slice-1 and
// Slice-2 reach only 1/3 of chip bandwidth ("up to 66% lower"),
// Slice-3 and Slice-4 reach 2/3 (the 33% under-utilization of §4.1);
// optically every slice reaches full utilization.
func TestFig5cUtilization(t *testing.T) {
	_, a := fig5bAllocation(t)
	wantElec := map[string]float64{
		"Slice-1": 1.0 / 3,
		"Slice-2": 1.0 / 3,
		"Slice-3": 2.0 / 3,
		"Slice-4": 2.0 / 3,
	}
	for si, s := range a.Slices() {
		elec := a.Utilization(si)
		if math.Abs(elec-wantElec[s.Name]) > 1e-12 {
			t.Errorf("%s electrical utilization = %v, want %v", s.Name, elec, wantElec[s.Name])
		}
		if opt := a.OpticalUtilization(si); opt != 1 {
			t.Errorf("%s optical utilization = %v, want 1", s.Name, opt)
		}
	}
	// The headline: Slice-1 suffers 66% lower bandwidth electrically.
	drop := 1 - a.Utilization(0)/a.OpticalUtilization(0)
	if math.Abs(drop-2.0/3) > 1e-12 {
		t.Fatalf("Slice-1 bandwidth drop = %.0f%%, want 66%%", drop*100)
	}
}

// TestZRingsCongest verifies the §4.1 claim that "rings along the Z
// dimension of all the slices ... share the links between servers in
// the Z dimension": no slice in the Figure 5b rack can run a Z ring.
func TestZRingsCongest(t *testing.T) {
	_, a := fig5bAllocation(t)
	for si, s := range a.Slices() {
		for _, d := range a.UsableDims(si, false) {
			if d == 2 {
				t.Fatalf("%s can use the Z dimension; it should be shared", s.Name)
			}
		}
	}
}

func TestUsableDimsWithFreePassThrough(t *testing.T) {
	tor := rack()
	// A lone 4x2x1 slice: its Y lines are completed by free chips.
	a, err := NewAllocation(tor, []*Slice{
		{Name: "lone", Origin: Coord{0, 0, 0}, Shape: Shape{4, 2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	strict := a.UsableDims(0, false)
	if len(strict) != 1 || strict[0] != 0 {
		t.Fatalf("strict usable dims = %v, want [0]", strict)
	}
	// With pass-through over free chips, the Y lines complete through
	// the free half of the rack. Z (extent 1) has no ring regardless.
	relaxed := a.UsableDims(0, true)
	if len(relaxed) != 2 || relaxed[0] != 0 || relaxed[1] != 1 {
		t.Fatalf("free-pass-through usable dims = %v, want [0 1]", relaxed)
	}
}

func TestOpticalUtilizationZeroWhenNoRings(t *testing.T) {
	tor := rack()
	// A single chip has no rings at all; even optics cannot help.
	a, err := NewAllocation(tor, []*Slice{
		{Name: "one", Origin: Coord{0, 0, 0}, Shape: Shape{1, 1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.OpticalUtilization(0); got != 0 {
		t.Fatalf("optical utilization of 1-chip slice = %v, want 0", got)
	}
}

func TestLinkUse(t *testing.T) {
	u := LinkUse{}
	links := []Link{{1, 2}, {2, 3}}
	u.Add(links)
	u.Add([]Link{{1, 2}})
	if u.MaxCongestion() != 2 {
		t.Fatalf("max congestion = %d, want 2", u.MaxCongestion())
	}
	congested := u.CongestedLinks()
	if len(congested) != 1 || congested[0] != (Link{1, 2}) {
		t.Fatalf("congested = %v", congested)
	}
	u.Remove([]Link{{1, 2}})
	if u.MaxCongestion() != 1 {
		t.Fatalf("after remove: %d", u.MaxCongestion())
	}
	u.Remove(links)
	if len(u) != 0 {
		t.Fatalf("after removing all: %v", u)
	}
	if (LinkUse{}).MaxCongestion() != 0 {
		t.Fatal("empty use should have zero congestion")
	}
}

// TestSliceRingsDisjointWithinRack verifies the DESIGN.md invariant
// on the Figure 5b rack: the usable rings of all slices, taken
// together, are congestion-free — the under-utilization model is
// self-consistent.
func TestSliceRingsDisjointWithinRack(t *testing.T) {
	tor, a := fig5bAllocation(t)
	use := LinkUse{}
	for si, s := range a.Slices() {
		for _, d := range a.UsableDims(si, false) {
			links, err := s.RingLinks(tor, d)
			if err != nil {
				t.Fatalf("%s dim %d: %v", s.Name, d, err)
			}
			use.Add(links)
		}
	}
	if use.MaxCongestion() > 1 {
		t.Fatalf("usable rings congest on %v", use.CongestedLinks())
	}
}

// Remove un-records one use of each link, deleting entries that reach
// zero.
func (u LinkUse) Remove(links []Link) {
	for _, l := range links {
		if u[l] <= 1 {
			delete(u, l)
		} else {
			u[l]--
		}
	}
}

// MaxCongestion returns the highest per-link use count (0 when empty).
// A value above 1 means congestion.
func (u LinkUse) MaxCongestion() int {
	max := 0
	for _, n := range u {
		if n > max {
			max = n
		}
	}
	return max
}

// CongestedLinks returns the links used more than once, sorted for
// deterministic output.
func (u LinkUse) CongestedLinks() []Link {
	var out []Link
	for l, n := range u {
		if n > 1 {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
