// Package alloc places tenant slices on TPU racks: a first-fit placer
// for regular-shaped slices (the shapes TPUv4 leases, §4.1), a random
// multi-tenant workload generator, and exact reconstructions of the
// paper's scenario figures (5b, 6a, 6b) used by the experiments.
package alloc

import (
	"fmt"

	"lightpath/internal/rng"
	"lightpath/internal/torus"
)

// Placer assigns slices to free regions of a torus, first-fit in
// row-major origin order, without wrapping slices around the torus
// (TPUv4 slices are axis-aligned blocks).
type Placer struct {
	t        *torus.Torus
	occupied []bool
	slices   []*torus.Slice
}

// NewPlacer creates an empty placer over the torus.
func NewPlacer(t *torus.Torus) *Placer {
	return &Placer{t: t, occupied: make([]bool, t.Size())}
}

// FreeCount returns the number of unallocated chips.
func (p *Placer) FreeCount() int {
	n := 0
	for _, o := range p.occupied {
		if !o {
			n++
		}
	}
	return n
}

// Place finds the first origin (row-major) where a slice of the shape
// fits entirely on free chips, places it, and returns it. TPUv4-style
// realizability is enforced: every extent must be 1, 2 or the full
// torus extent so the slice's rings close (torus.Slice.RingLinks).
func (p *Placer) Place(name string, shape torus.Shape) (*torus.Slice, error) {
	if len(shape) != p.t.Dims() {
		return nil, fmt.Errorf("alloc: shape %v has %d dims, torus has %d", shape, shape.Dims(), p.t.Dims())
	}
	for d, e := range shape {
		if e != 1 && e != 2 && e != p.t.Extent(d) {
			return nil, fmt.Errorf("alloc: extent %d in dim %d is not realizable (want 1, 2 or %d)",
				e, d, p.t.Extent(d))
		}
	}
	origin := make(torus.Coord, p.t.Dims())
	for {
		s := &torus.Slice{Name: name, Origin: origin.Clone(), Shape: shape.Clone()}
		if p.fitsUnwrapped(s) && p.allFree(s) {
			for _, chip := range s.Chips(p.t) {
				p.occupied[chip] = true
			}
			p.slices = append(p.slices, s)
			return s, nil
		}
		// Advance the origin odometer.
		d := len(origin) - 1
		for ; d >= 0; d-- {
			origin[d]++
			if origin[d] < p.t.Extent(d) {
				break
			}
			origin[d] = 0
		}
		if d < 0 {
			return nil, fmt.Errorf("alloc: no free region for %q (%v)", name, shape)
		}
	}
}

// Allocation freezes the current placement into a validated
// torus.Allocation.
func (p *Placer) Allocation() (*torus.Allocation, error) {
	return torus.NewAllocation(p.t, p.slices)
}

func (p *Placer) fitsUnwrapped(s *torus.Slice) bool {
	for d := range s.Origin {
		if s.Origin[d]+s.Shape[d] > p.t.Extent(d) {
			return false
		}
	}
	return true
}

func (p *Placer) allFree(s *torus.Slice) bool {
	for _, chip := range s.Chips(p.t) {
		if p.occupied[chip] {
			return false
		}
	}
	return true
}

// TenantShapes is the catalog of slice shapes a TPUv4-style rack
// leases: axis extents from {1, 2, 4} with at least 2 chips.
func TenantShapes(t *torus.Torus) []torus.Shape {
	options := func(d int) []int {
		if t.Extent(d) >= 4 {
			return []int{1, 2, t.Extent(d)}
		}
		return []int{1, 2}
	}
	var shapes []torus.Shape
	var build func(d int, cur torus.Shape)
	build = func(d int, cur torus.Shape) {
		if d == t.Dims() {
			if cur.Size() >= 2 {
				shapes = append(shapes, cur.Clone())
			}
			return
		}
		for _, e := range options(d) {
			build(d+1, append(cur, e))
		}
	}
	build(0, torus.Shape{})
	return shapes
}

// RandomTenants fills the placer with randomly shaped tenants until
// either maxTenants are placed or no catalog shape fits, returning
// the placed slices. Deterministic given the stream.
func RandomTenants(p *Placer, r *rng.Rand, maxTenants int) []*torus.Slice {
	shapes := TenantShapes(p.t)
	var placed []*torus.Slice
	for i := 0; i < maxTenants; i++ {
		// Try a few random shapes before concluding the rack is full.
		var s *torus.Slice
		for attempt := 0; attempt < 8; attempt++ {
			shape := shapes[r.Intn(len(shapes))]
			var err error
			s, err = p.Place(fmt.Sprintf("tenant-%d", i), shape)
			if err == nil {
				break
			}
			s = nil
		}
		if s == nil {
			break
		}
		placed = append(placed, s)
	}
	return placed
}
