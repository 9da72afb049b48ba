package torus

import (
	"errors"
	"testing"
)

// rack returns the paper's 4x4x4 TPU rack.
func rack() *Torus { return New(Shape{4, 4, 4}) }

func TestSliceValidate(t *testing.T) {
	tor := rack()
	good := &Slice{Name: "ok", Origin: Coord{0, 0, 3}, Shape: Shape{4, 2, 1}}
	if err := good.Validate(tor); err != nil {
		t.Fatalf("valid slice rejected: %v", err)
	}
	bad := []*Slice{
		{Name: "dims", Origin: Coord{0, 0}, Shape: Shape{4, 2, 1}},
		{Name: "origin", Origin: Coord{0, 0, 4}, Shape: Shape{1, 1, 1}},
		{Name: "extent", Origin: Coord{0, 0, 0}, Shape: Shape{5, 1, 1}},
		{Name: "zero", Origin: Coord{0, 0, 0}, Shape: Shape{0, 1, 1}},
	}
	for _, s := range bad {
		if err := s.Validate(tor); err == nil {
			t.Errorf("slice %q should not validate", s.Name)
		}
	}
}

func TestSliceChips(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s1", Origin: Coord{0, 0, 3}, Shape: Shape{4, 2, 1}}
	chips := s.Chips(tor)
	if len(chips) != 8 {
		t.Fatalf("chips = %d, want 8", len(chips))
	}
	seen := map[int]bool{}
	for _, c := range chips {
		if seen[c] {
			t.Fatalf("duplicate chip %d", c)
		}
		seen[c] = true
		if !s.ContainsIndex(tor, c) {
			t.Fatalf("chip %d not contained in its own slice", c)
		}
	}
	// A chip outside.
	if s.ContainsIndex(tor, tor.Index(Coord{0, 2, 3})) {
		t.Fatal("slice contains chip outside its shape")
	}
	if s.Size() != 8 {
		t.Fatalf("size = %d", s.Size())
	}
}

func TestSliceContainsWraps(t *testing.T) {
	tor := rack()
	// Slice wrapping around dimension 0: origin x=3, extent 2 covers
	// x in {3, 0}.
	s := &Slice{Name: "wrap", Origin: Coord{3, 0, 0}, Shape: Shape{2, 1, 1}}
	if !s.Contains(tor, Coord{3, 0, 0}) || !s.Contains(tor, Coord{0, 0, 0}) {
		t.Fatal("wrapping slice does not contain its chips")
	}
	if s.Contains(tor, Coord{1, 0, 0}) || s.Contains(tor, Coord{2, 0, 0}) {
		t.Fatal("wrapping slice contains outside chips")
	}
}

func TestChipAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChipAt out of slice did not panic")
		}
	}()
	s := &Slice{Origin: Coord{0, 0, 0}, Shape: Shape{2, 2, 1}}
	s.ChipAt(rack(), Coord{2, 0, 0})
}

func TestSpansDim(t *testing.T) {
	tor := rack()
	s := &Slice{Origin: Coord{0, 0, 0}, Shape: Shape{4, 2, 1}}
	if !s.SpansDim(tor, 0) {
		t.Fatal("extent-4 dim should span")
	}
	if s.SpansDim(tor, 1) || s.SpansDim(tor, 2) {
		t.Fatal("partial dims should not span")
	}
}

func TestRingLinksFullDim(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s3", Origin: Coord{0, 0, 2}, Shape: Shape{4, 4, 1}}
	links, err := s.RingLinks(tor, 0)
	if err != nil {
		t.Fatalf("RingLinks: %v", err)
	}
	// 4 rings (one per y) of 4 links each.
	if len(links) != 16 {
		t.Fatalf("links = %d, want 16", len(links))
	}
	// All links stay inside the slice and run along dim 0.
	for _, l := range links {
		if !s.ContainsIndex(tor, l.From) || !s.ContainsIndex(tor, l.To) {
			t.Fatalf("ring link %v leaves the slice", l)
		}
		if tor.LinkDim(l) != 0 {
			t.Fatalf("ring link %v not along dim 0", l)
		}
	}
}

func TestRingLinksExtent2(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s1", Origin: Coord{0, 0, 3}, Shape: Shape{4, 2, 1}}
	links, err := s.RingLinks(tor, 1)
	if err != nil {
		t.Fatalf("RingLinks extent 2: %v", err)
	}
	// 4 pairs (one per x) of 2 directed links.
	if len(links) != 8 {
		t.Fatalf("links = %d, want 8", len(links))
	}
	use := LinkUse{}
	use.Add(links)
	if use.MaxCongestion() != 1 {
		t.Fatalf("extent-2 rings self-congest: %v", use.CongestedLinks())
	}
}

func TestRingLinksExtent1(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s3", Origin: Coord{0, 0, 2}, Shape: Shape{4, 4, 1}}
	links, err := s.RingLinks(tor, 2)
	if err != nil || links != nil {
		t.Fatalf("extent-1 = (%v, %v), want (nil, nil)", links, err)
	}
}

func TestRingLinksUnrealizable(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "bad", Origin: Coord{0, 0, 0}, Shape: Shape{3, 1, 1}}
	if _, err := s.RingLinks(tor, 0); !errors.Is(err, ErrNoRing) {
		t.Fatalf("extent 3 of 4: err = %v, want ErrNoRing", err)
	}
}

func TestRings(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s3", Origin: Coord{0, 0, 2}, Shape: Shape{4, 4, 1}}
	rings, err := s.Rings(tor, 1)
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	if len(rings) != 4 {
		t.Fatalf("rings = %d, want 4 (one per x)", len(rings))
	}
	for _, ring := range rings {
		if len(ring) != 4 {
			t.Fatalf("ring size = %d, want 4", len(ring))
		}
		for i := range ring {
			l := Link{From: ring[i], To: ring[(i+1)%len(ring)]}
			if tor.LinkDim(l) != 1 {
				t.Fatalf("consecutive ring chips not adjacent along dim 1: %v", l)
			}
		}
	}
	// Extent-1 dim: no rings, no error.
	rings, err = s.Rings(tor, 2)
	if err != nil || rings != nil {
		t.Fatalf("extent-1 rings = (%v, %v)", rings, err)
	}
}

func TestSnakeRingSlice1(t *testing.T) {
	// Table 1's Slice-1: 4x2x1, a single ring over all 8 chips.
	tor := rack()
	s := &Slice{Name: "s1", Origin: Coord{0, 0, 3}, Shape: Shape{4, 2, 1}}
	ring, err := s.SnakeRing(tor)
	if err != nil {
		t.Fatalf("SnakeRing: %v", err)
	}
	assertHamiltonianCycle(t, tor, s, ring)
}

func TestSnakeRing4x4(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "s3", Origin: Coord{0, 0, 2}, Shape: Shape{4, 4, 1}}
	ring, err := s.SnakeRing(tor)
	if err != nil {
		t.Fatalf("SnakeRing: %v", err)
	}
	assertHamiltonianCycle(t, tor, s, ring)
}

func TestSnakeRing2x4Offset(t *testing.T) {
	tor := rack()
	s := &Slice{Name: "o", Origin: Coord{1, 0, 1}, Shape: Shape{2, 4, 1}}
	ring, err := s.SnakeRing(tor)
	if err != nil {
		t.Fatalf("SnakeRing: %v", err)
	}
	assertHamiltonianCycle(t, tor, s, ring)
}

func TestSnakeRing1D(t *testing.T) {
	tor := rack()
	// Full-extent 1-D slice: ring uses the wrap.
	s := &Slice{Name: "line", Origin: Coord{0, 1, 1}, Shape: Shape{4, 1, 1}}
	ring, err := s.SnakeRing(tor)
	if err != nil {
		t.Fatalf("SnakeRing 1D: %v", err)
	}
	assertHamiltonianCycle(t, tor, s, ring)
	// Extent-2 1-D slice.
	s2 := &Slice{Name: "pair", Origin: Coord{0, 1, 1}, Shape: Shape{2, 1, 1}}
	ring, err = s2.SnakeRing(tor)
	if err != nil {
		t.Fatalf("SnakeRing pair: %v", err)
	}
	if len(ring) != 2 {
		t.Fatalf("pair ring = %v", ring)
	}
}

func TestSnakeRingErrors(t *testing.T) {
	tor := rack()
	cases := []*Slice{
		{Name: "single", Origin: Coord{0, 0, 0}, Shape: Shape{1, 1, 1}},
		{Name: "1d-3of4", Origin: Coord{0, 0, 0}, Shape: Shape{3, 1, 1}},
		{Name: "3d", Origin: Coord{0, 0, 0}, Shape: Shape{4, 4, 2}},
		{Name: "odd-odd", Origin: Coord{0, 0, 0}, Shape: Shape{3, 3, 1}},
	}
	for _, s := range cases {
		if _, err := s.SnakeRing(tor); err == nil {
			t.Errorf("slice %q should have no snake ring", s.Name)
		}
	}
}

func TestRingToLinks(t *testing.T) {
	links := RingToLinks([]int{1, 2, 3})
	want := []Link{{1, 2}, {2, 3}, {3, 1}}
	if len(links) != 3 {
		t.Fatalf("links = %v", links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("links = %v, want %v", links, want)
		}
	}
	if RingToLinks([]int{1}) != nil || RingToLinks(nil) != nil {
		t.Fatal("degenerate rings should yield no links")
	}
}

// assertHamiltonianCycle checks the ring visits every slice chip
// exactly once with consecutive chips torus-adjacent (including the
// closing edge), and that its links are congestion-free.
func assertHamiltonianCycle(t *testing.T, tor *Torus, s *Slice, ring []int) {
	t.Helper()
	if len(ring) != s.Size() {
		t.Fatalf("ring covers %d chips, slice has %d", len(ring), s.Size())
	}
	seen := map[int]bool{}
	for _, c := range ring {
		if seen[c] {
			t.Fatalf("ring revisits chip %d", c)
		}
		seen[c] = true
		if !s.ContainsIndex(tor, c) {
			t.Fatalf("ring chip %d outside slice", c)
		}
	}
	links := RingToLinks(ring)
	for _, l := range links {
		if tor.LinkDim(l) < 0 {
			t.Fatalf("ring step %v not torus-adjacent", l)
		}
	}
	use := LinkUse{}
	use.Add(links)
	if use.MaxCongestion() > 1 {
		t.Fatalf("snake ring self-congests on %v", use.CongestedLinks())
	}
}

// RingToLinks converts an ordered chip cycle into its directed links,
// including the closing link from the last chip back to the first.
func RingToLinks(ring []int) []Link {
	if len(ring) < 2 {
		return nil
	}
	links := make([]Link, len(ring))
	for i := range ring {
		links[i] = Link{From: ring[i], To: ring[(i+1)%len(ring)]}
	}
	return links
}

// ContainsIndex reports whether chip index i belongs to the slice.
func (s *Slice) ContainsIndex(t *Torus, i int) bool {
	return s.Contains(t, t.Coord(i))
}

// Contains reports whether the chip at coordinate c belongs to the
// slice. The slice may wrap around the parent torus.
func (s *Slice) Contains(t *Torus, c Coord) bool {
	for d := range c {
		e := t.Extent(d)
		rel := (c[d] - s.Origin[d] + e) % e
		if rel >= s.Shape[d] {
			return false
		}
	}
	return true
}
