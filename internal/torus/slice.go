package torus

import (
	"errors"
	"fmt"
)

// Slice is a sub-torus allocated to one tenant: "a subset of TPU chips
// allocated to a single cloud tenant. Typically, slices can only be
// allocated in regular shapes, forming tori of specific dimensions"
// (§4.1). A Slice is described by its origin corner and shape inside a
// parent torus.
type Slice struct {
	Name   string
	Origin Coord
	Shape  Shape
}

// Validate checks the slice against the parent torus: matching
// dimensionality, in-bounds origin, extents that fit without wrapping
// past the parent.
func (s *Slice) Validate(t *Torus) error {
	if len(s.Origin) != t.Dims() || len(s.Shape) != t.Dims() {
		return fmt.Errorf("torus: slice %q has %d/%d dims, torus has %d",
			s.Name, len(s.Origin), len(s.Shape), t.Dims())
	}
	if err := s.Shape.Validate(); err != nil {
		return err
	}
	for d := range s.Origin {
		if s.Origin[d] < 0 || s.Origin[d] >= t.Extent(d) {
			return fmt.Errorf("torus: slice %q origin %v out of bounds", s.Name, s.Origin)
		}
		if s.Shape[d] > t.Extent(d) {
			return fmt.Errorf("torus: slice %q extent %d exceeds torus extent %d in dim %d",
				s.Name, s.Shape[d], t.Extent(d), d)
		}
	}
	return nil
}

// Size returns the number of chips in the slice.
func (s *Slice) Size() int { return s.Shape.Size() }

// Chips returns the chip indices of the slice in row-major order of
// the slice's local coordinates.
func (s *Slice) Chips(t *Torus) []int {
	chips := make([]int, 0, s.Size())
	local := make(Coord, len(s.Shape))
	abs := make(Coord, len(s.Shape))
	for {
		for d := range local {
			abs[d] = s.Origin[d] + local[d]
		}
		chips = append(chips, t.Index(abs))
		// Odometer increment over the slice shape.
		d := len(local) - 1
		for ; d >= 0; d-- {
			local[d]++
			if local[d] < s.Shape[d] {
				break
			}
			local[d] = 0
		}
		if d < 0 {
			return chips
		}
	}
}

// ChipAt returns the chip index at the given local coordinate of the
// slice.
func (s *Slice) ChipAt(t *Torus, local Coord) int {
	abs := make(Coord, len(local))
	for d := range local {
		if local[d] < 0 || local[d] >= s.Shape[d] {
			panic(fmt.Sprintf("torus: local coord %v outside slice shape %v", local, s.Shape))
		}
		abs[d] = s.Origin[d] + local[d]
	}
	return t.Index(abs)
}

// SpansDim reports whether the slice covers the parent torus's full
// extent along dimension d, which is the condition under which its
// dimension-d rings can use the physical wrap-around without touching
// other tenants.
func (s *Slice) SpansDim(t *Torus, d int) bool {
	return s.Shape[d] == t.Extent(d)
}

// ErrNoRing reports that a slice cannot realize a congestion-free ring
// along the requested dimension on the electrical torus.
var ErrNoRing = errors.New("torus: no realizable ring along dimension")

// RingLinks returns the directed links used by the slice's
// dimension-d rings: one ring per combination of the other slice
// coordinates. On a direct-connect electrical torus a ring is
// realizable within the slice only if:
//
//   - the slice spans the full physical dimension (the ring is the
//     physical line's cycle), or
//   - the slice has extent 2 in d (the "ring" is the two directions of
//     one cable), or
//   - the slice has extent 1 in d (no ring needed; no links).
//
// Any intermediate extent would need to close its cycle through chips
// outside the slice — the congestion the paper describes — so it
// returns ErrNoRing. (TPUv4 sidesteps this by only allocating slice
// shapes whose extents divide the rack this way; see §4.1.)
func (s *Slice) RingLinks(t *Torus, d int) ([]Link, error) {
	extent := s.Shape[d]
	switch {
	case extent == 1:
		return nil, nil
	case extent == 2, s.SpansDim(t, d):
		// Realizable: enumerate one ring per orthogonal position.
	default:
		return nil, fmt.Errorf("%w %d: slice %q extent %d < torus extent %d",
			ErrNoRing, d, s.Name, extent, t.Extent(d))
	}

	var links []Link
	orth := s.orthogonalPositions(d)
	for _, base := range orth {
		if s.SpansDim(t, d) {
			links = append(links, t.RingLinksForLine(s.ChipAt(t, base), d)...)
			continue
		}
		// Extent 2: both directions of the single cable between the
		// two chips.
		a := base.Clone()
		b := base.Clone()
		a[d] = 0
		b[d] = 1
		ca, cb := s.ChipAt(t, a), s.ChipAt(t, b)
		links = append(links, Link{From: ca, To: cb}, Link{From: cb, To: ca})
	}
	return links, nil
}

// Rings returns the ordered chip rings along dimension d, one per
// orthogonal position, under the same realizability rules as
// RingLinks. Extent-1 dimensions yield no rings.
func (s *Slice) Rings(t *Torus, d int) ([][]int, error) {
	if _, err := s.RingLinks(t, d); err != nil {
		return nil, err
	}
	if s.Shape[d] == 1 {
		return nil, nil
	}
	var rings [][]int
	for _, base := range s.orthogonalPositions(d) {
		ring := make([]int, s.Shape[d])
		c := base.Clone()
		for v := 0; v < s.Shape[d]; v++ {
			c[d] = v
			ring[v] = s.ChipAt(t, c)
		}
		rings = append(rings, ring)
	}
	return rings, nil
}

// orthogonalPositions enumerates local coordinates with dimension d
// fixed at 0, one per ring along d.
func (s *Slice) orthogonalPositions(d int) []Coord {
	n := s.Size() / s.Shape[d]
	out := make([]Coord, 0, n)
	local := make(Coord, len(s.Shape))
	for {
		if local[d] == 0 {
			out = append(out, local.Clone())
		}
		i := len(local) - 1
		for ; i >= 0; i-- {
			local[i]++
			if local[i] < s.Shape[i] {
				break
			}
			local[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// SnakeRing returns a Hamiltonian cycle over all chips of the slice in
// which consecutive chips are torus-adjacent — the single ring over
// which a small slice like the paper's Slice-1 (4x2x1) executes its
// collective (Table 1's 7-step ring over 8 chips).
//
// The construction is the standard boustrophedon cycle on the slice's
// effective 2-D grid, which exists when the slice has at most two
// dimensions of extent > 1 and at least one of them is even. Richer
// shapes return an error; the paper's sub-rack slices all satisfy the
// condition.
func (s *Slice) SnakeRing(t *Torus) ([]int, error) {
	// Identify the non-trivial dimensions.
	var dims []int
	for d, e := range s.Shape {
		if e > 1 {
			dims = append(dims, d)
		}
	}
	switch len(dims) {
	case 0:
		return nil, fmt.Errorf("torus: slice %q has a single chip, no ring", s.Name)
	case 1:
		d := dims[0]
		if s.Shape[d] != 2 && !s.SpansDim(t, d) {
			return nil, fmt.Errorf("%w %d: 1-D slice %q cannot close its ring", ErrNoRing, d, s.Name)
		}
		ring := make([]int, s.Shape[d])
		c := make(Coord, len(s.Shape))
		for v := range ring {
			c[d] = v
			ring[v] = s.ChipAt(t, c)
		}
		return ring, nil
	case 2:
		// Arrange so dimension b (the "rows") has even extent.
		a, b := dims[0], dims[1]
		if s.Shape[b]%2 != 0 {
			a, b = b, a
		}
		if s.Shape[b]%2 != 0 {
			return nil, fmt.Errorf("torus: slice %q (%v) has no grid Hamiltonian cycle (both extents odd)", s.Name, s.Shape)
		}
		return s.boustrophedon(t, a, b), nil
	default:
		return nil, fmt.Errorf("torus: slice %q has %d non-trivial dims; snake ring supports at most 2", s.Name, len(dims))
	}
}

// boustrophedon builds the comb-shaped Hamiltonian cycle on the (a, b)
// grid of the slice, where extent(b) is even: walk row 0 of b across
// all of a; snake back through rows 1..B-1 over a in [1, A-1]; return
// up the a=0 rail.
func (s *Slice) boustrophedon(t *Torus, a, b int) []int {
	A, B := s.Shape[a], s.Shape[b]
	cycle := make([]int, 0, A*B)
	c := make(Coord, len(s.Shape))
	at := func(av, bv int) int {
		c[a], c[b] = av, bv
		return s.ChipAt(t, c)
	}
	if A == 1 {
		// Degenerate: pure 1-D even ring along b (extent 2 or full).
		for bv := 0; bv < B; bv++ {
			cycle = append(cycle, at(0, bv))
		}
		return cycle
	}
	// Row b=0, a from 0 to A-1.
	for av := 0; av < A; av++ {
		cycle = append(cycle, at(av, 0))
	}
	// Rows b=1..B-1 snake over a in [1, A-1]; rows alternate direction
	// starting right-to-left. B even ensures the final row ends at a=1.
	for bv := 1; bv < B; bv++ {
		if bv%2 == 1 {
			for av := A - 1; av >= 1; av-- {
				cycle = append(cycle, at(av, bv))
			}
		} else {
			for av := 1; av <= A-1; av++ {
				cycle = append(cycle, at(av, bv))
			}
		}
	}
	// Up the a=0 rail from b=B-1 back toward b=1; the cycle closes
	// from (0,1) to the start (0,0).
	for bv := B - 1; bv >= 1; bv-- {
		cycle = append(cycle, at(0, bv))
	}
	return cycle
}
