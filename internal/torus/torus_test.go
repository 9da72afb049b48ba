package torus

import (
	"testing"
	"testing/quick"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{4, 4, 4}
	if s.Size() != 64 {
		t.Fatalf("size = %d, want 64", s.Size())
	}
	if s.Dims() != 3 {
		t.Fatalf("dims = %d, want 3", s.Dims())
	}
	if s.String() != "4x4x4" {
		t.Fatalf("string = %q, want 4x4x4", s.String())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := (Shape{}).Validate(); err == nil {
		t.Fatal("empty shape should not validate")
	}
	if err := (Shape{4, 0}).Validate(); err == nil {
		t.Fatal("zero extent should not validate")
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 4 {
		t.Fatal("clone aliases original")
	}
}

func TestCoordBasics(t *testing.T) {
	c := Coord{1, 2, 3}
	if c.String() != "(1,2,3)" {
		t.Fatalf("string = %q", c.String())
	}
	o := c.Clone()
	o[0] = 9
	if c[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	tor := New(Shape{4, 3, 5})
	for i := 0; i < tor.Size(); i++ {
		if got := tor.Index(tor.Coord(i)); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, tor.Coord(i), got)
		}
	}
}

func TestIndexWraps(t *testing.T) {
	tor := New(Shape{4, 4, 4})
	if got := tor.Index(Coord{-1, 0, 0}); got != tor.Index(Coord{3, 0, 0}) {
		t.Fatalf("negative wrap: %d", got)
	}
	if got := tor.Index(Coord{4, 0, 0}); got != tor.Index(Coord{0, 0, 0}) {
		t.Fatalf("positive wrap: %d", got)
	}
	if got := tor.Index(Coord{9, 0, 0}); got != tor.Index(Coord{1, 0, 0}) {
		t.Fatalf("multi-wrap: %d", got)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	// DESIGN.md invariant: neighbor relations are symmetric.
	tor := New(Shape{4, 3, 2})
	for i := 0; i < tor.Size(); i++ {
		for d := 0; d < tor.Dims(); d++ {
			n := tor.Neighbor(i, d, +1)
			back := tor.Neighbor(n, d, -1)
			if back != i {
				t.Fatalf("neighbor not symmetric: %d +%d -> %d -%d -> %d", i, d, n, d, back)
			}
		}
	}
}

func TestNeighborWrapsAround(t *testing.T) {
	tor := New(Shape{4})
	last := tor.Index(Coord{3})
	if got := tor.Neighbor(last, 0, +1); got != tor.Index(Coord{0}) {
		t.Fatalf("wrap +1 from end = %d", got)
	}
	first := tor.Index(Coord{0})
	if got := tor.Neighbor(first, 0, -1); got != last {
		t.Fatalf("wrap -1 from start = %d", got)
	}
}

func TestLinkDim(t *testing.T) {
	tor := New(Shape{4, 4, 4})
	a := tor.Index(Coord{0, 0, 0})
	cases := []struct {
		to   Coord
		want int
	}{
		{Coord{1, 0, 0}, 0},
		{Coord{3, 0, 0}, 0}, // wrap adjacency
		{Coord{0, 1, 0}, 1},
		{Coord{0, 0, 3}, 2},
		{Coord{2, 0, 0}, -1}, // distance 2
		{Coord{1, 1, 0}, -1}, // diagonal
		{Coord{0, 0, 0}, -1}, // self
	}
	for _, c := range cases {
		l := Link{From: a, To: tor.Index(c.to)}
		if got := tor.LinkDim(l); got != c.want {
			t.Errorf("LinkDim(0 -> %v) = %d, want %d", c.to, got, c.want)
		}
	}
}

func TestLinkReverseAndString(t *testing.T) {
	l := Link{From: 3, To: 7}
	if l.Reverse() != (Link{From: 7, To: 3}) {
		t.Fatal("reverse wrong")
	}
	if l.String() != "3->7" {
		t.Fatalf("string = %q", l.String())
	}
}

func TestLine(t *testing.T) {
	tor := New(Shape{4, 4, 4})
	chip := tor.Index(Coord{2, 1, 3})
	line := tor.Line(chip, 0)
	if len(line) != 4 {
		t.Fatalf("line length = %d", len(line))
	}
	for v, c := range line {
		want := tor.Index(Coord{v, 1, 3})
		if c != want {
			t.Fatalf("line[%d] = %d, want %d", v, c, want)
		}
	}
}

func TestRingLinksForLine(t *testing.T) {
	tor := New(Shape{4, 2, 1})
	// Dim 0, extent 4: a closed directed 4-cycle.
	links := tor.RingLinksForLine(0, 0)
	if len(links) != 4 {
		t.Fatalf("dim-0 ring links = %d, want 4", len(links))
	}
	// The cycle closes: every chip appears once as From and once as To.
	from := map[int]int{}
	to := map[int]int{}
	for _, l := range links {
		from[l.From]++
		to[l.To]++
	}
	for c, n := range from {
		if n != 1 || to[c] != 1 {
			t.Fatalf("chip %d appears from=%d to=%d", c, n, to[c])
		}
	}
	// Dim 1, extent 2: exactly the two opposite directed links.
	links = tor.RingLinksForLine(0, 1)
	if len(links) != 2 || links[0].Reverse() != links[1] {
		t.Fatalf("dim-1 ring links = %v", links)
	}
	// Dim 2, extent 1: nothing.
	if links = tor.RingLinksForLine(0, 2); links != nil {
		t.Fatalf("dim-2 ring links = %v, want none", links)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad shape did not panic")
		}
	}()
	New(Shape{0})
}

func TestCoordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Coord(-1) did not panic")
		}
	}()
	New(Shape{4}).Coord(-1)
}

func TestIndexPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index with wrong dims did not panic")
		}
	}()
	New(Shape{4, 4}).Index(Coord{1})
}

// Property: for random shapes, every chip has exactly 2 neighbors per
// dimension of extent >= 3, 1 distinct neighbor for extent 2, and the
// index<->coord mapping is a bijection.
func TestTorusProperties(t *testing.T) {
	f := func(a, b, c uint8) bool {
		shape := Shape{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		tor := New(shape)
		seen := make(map[int]bool)
		for i := 0; i < tor.Size(); i++ {
			if seen[i] {
				return false
			}
			seen[i] = true
			if tor.Index(tor.Coord(i)) != i {
				return false
			}
		}
		return len(seen) == shape.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDORPath(t *testing.T) {
	tor := New(Shape{4, 4, 4})
	from := tor.Index(Coord{0, 0, 0})
	to := tor.Index(Coord{2, 3, 1})
	path := tor.DORPath(from, to)
	// Dim 0: 2 steps forward; dim 1: 3 -> shorter backward (1 step);
	// dim 2: 1 step. Total 4 links.
	if len(path) != 4 {
		t.Fatalf("path length = %d, want 4: %v", len(path), path)
	}
	// The path is connected from 'from' to 'to' over adjacent links.
	at := from
	for _, l := range path {
		if l.From != at {
			t.Fatalf("path disconnected at %v", l)
		}
		if tor.LinkDim(l) < 0 {
			t.Fatalf("path uses non-adjacent link %v", l)
		}
		at = l.To
	}
	if at != to {
		t.Fatalf("path ends at %d, want %d", at, to)
	}
	// Self-path is empty.
	if p := tor.DORPath(from, from); len(p) != 0 {
		t.Fatalf("self path = %v", p)
	}
}

func TestDORPathTakesShorterWrap(t *testing.T) {
	tor := New(Shape{4})
	// 0 -> 3 is one step backward via the wrap, not three forward.
	path := tor.DORPath(0, 3)
	if len(path) != 1 {
		t.Fatalf("wrap path = %v, want single link", path)
	}
	if path[0] != (Link{From: 0, To: 3}) {
		t.Fatalf("wrap link = %v", path[0])
	}
}

// Property: DOR paths are minimal per dimension: length equals the sum
// of per-dimension ring distances.
func TestDORPathMinimalProperty(t *testing.T) {
	tor := New(Shape{4, 3, 5})
	f := func(a, b uint16) bool {
		from := int(a) % tor.Size()
		to := int(b) % tor.Size()
		path := tor.DORPath(from, to)
		cf, ct := tor.Coord(from), tor.Coord(to)
		want := 0
		for d := 0; d < tor.Dims(); d++ {
			e := tor.Extent(d)
			diff := ((ct[d]-cf[d])%e + e) % e
			if diff > e-diff {
				diff = e - diff
			}
			want += diff
		}
		return len(path) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
