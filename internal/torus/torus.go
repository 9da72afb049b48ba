// Package torus models direct-connect torus interconnects of ML
// accelerators: the substrate of Google's TPUv4 supercomputer that the
// paper uses for all of its §4 scenarios (Figures 5-7, Tables 1-2).
//
// A Torus is an N-dimensional wrap-around grid of chips with directed
// links between adjacent chips. Slices are sub-tori allocated to
// tenants. The package provides the paper's congestion model:
// congestion is "multiple transfers occurring simultaneously on the
// same link" (§4.1), and a slice can run a collective ring along a
// dimension without congestion only if it can close a directed cycle
// on the physical dimension line without touching another tenant's
// chips or links (§4.1's bandwidth-under-utilization observation and
// §4.2's pass-through/forwarding argument).
package torus

import (
	"errors"
	"fmt"
)

// Shape is the per-dimension extent of a torus or slice, e.g.
// Shape{4, 4, 4} for a TPUv4 rack cube.
type Shape []int

// Size returns the total number of chips: the product of extents.
func (s Shape) Size() int {
	n := 1
	for _, e := range s {
		n *= e
	}
	return n
}

// Dims returns the number of dimensions.
func (s Shape) Dims() int { return len(s) }

// Validate reports whether every extent is positive.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return errors.New("torus: empty shape")
	}
	for d, e := range s {
		if e <= 0 {
			return fmt.Errorf("torus: dimension %d has non-positive extent %d", d, e)
		}
	}
	return nil
}

// Clone returns an independent copy.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String formats the shape as "4x4x4".
func (s Shape) String() string {
	out := ""
	for i, e := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprintf("%d", e)
	}
	return out
}

// Coord is a chip position, one entry per dimension.
type Coord []int

// Clone returns an independent copy.
func (c Coord) Clone() Coord {
	o := make(Coord, len(c))
	copy(o, c)
	return o
}

// String formats the coordinate as "(x,y,z)".
func (c Coord) String() string {
	out := "("
	for i, v := range c {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", v)
	}
	return out + ")"
}

// Torus is an N-dimensional direct-connect torus of chips. Chips are
// identified both by Coord and by a dense integer index in
// [0, Size()). Links are directed: the pair (a->b, b->a) models the
// two directions of a full-duplex ICI/NVLink-style cable, each with
// its own bandwidth.
type Torus struct {
	shape   Shape
	strides []int
}

// New constructs a torus of the given shape. It panics on an invalid
// shape; use Shape.Validate to check first when the shape is not
// statically known.
func New(shape Shape) *Torus {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	t := &Torus{shape: shape.Clone(), strides: make([]int, len(shape))}
	stride := 1
	for d := len(shape) - 1; d >= 0; d-- {
		t.strides[d] = stride
		stride *= shape[d]
	}
	return t
}

// Shape returns the torus shape (a copy).
func (t *Torus) Shape() Shape { return t.shape.Clone() }

// Dims returns the number of dimensions.
func (t *Torus) Dims() int { return len(t.shape) }

// Extent returns the size of dimension d.
func (t *Torus) Extent(d int) int { return t.shape[d] }

// Size returns the number of chips.
func (t *Torus) Size() int { return t.shape.Size() }

// Index linearizes a coordinate. Coordinates are wrapped into range,
// so Index(Coord{-1, 0, 0}) on a 4x4x4 torus is the chip at (3,0,0).
func (t *Torus) Index(c Coord) int {
	if len(c) != len(t.shape) {
		panic(fmt.Sprintf("torus: coord %v has %d dims, torus has %d", c, len(c), len(t.shape)))
	}
	idx := 0
	for d, v := range c {
		e := t.shape[d]
		v %= e
		if v < 0 {
			v += e
		}
		idx += v * t.strides[d]
	}
	return idx
}

// Coord returns the coordinate of a chip index. It panics on an
// out-of-range index.
func (t *Torus) Coord(i int) Coord {
	if i < 0 || i >= t.Size() {
		panic(fmt.Sprintf("torus: index %d out of range [0, %d)", i, t.Size()))
	}
	c := make(Coord, len(t.shape))
	for d := range t.shape {
		c[d] = (i / t.strides[d]) % t.shape[d]
	}
	return c
}

// Neighbor returns the chip adjacent to i along dimension d in
// direction dir (+1 or -1), with wrap-around.
func (t *Torus) Neighbor(i, d, dir int) int {
	c := t.Coord(i)
	c[d] += dir
	return t.Index(c)
}

// Link is a directed edge between two adjacent chips (or, in a
// Cluster, across an OCS between racks). Links are comparable and
// usable as map keys.
type Link struct {
	From, To int
}

// Reverse returns the opposite direction of the link.
func (l Link) Reverse() Link { return Link{From: l.To, To: l.From} }

// String formats the link as "a->b".
func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// LinkDim returns the dimension along which a link runs, or -1 if the
// two chips are not torus-adjacent.
func (t *Torus) LinkDim(l Link) int {
	if l.From == l.To {
		return -1
	}
	if l.From < 0 || l.From >= t.Size() || l.To < 0 || l.To >= t.Size() {
		panic(fmt.Sprintf("torus: link %v out of range [0, %d)", l, t.Size()))
	}
	// Per-dimension coordinates computed from the strides directly;
	// this runs per transfer in the schedule executors, so it must not
	// materialize Coord slices.
	dim := -1
	for d := range t.shape {
		e := t.shape[d]
		vf := (l.From / t.strides[d]) % e
		vt := (l.To / t.strides[d]) % e
		if vf == vt {
			continue
		}
		if dim >= 0 {
			return -1 // differs in more than one dimension
		}
		diff := (vt - vf + e) % e
		if diff != 1 && diff != e-1 {
			return -1 // not adjacent along d
		}
		dim = d
	}
	return dim
}

// Line returns the chips along dimension d passing through chip i, in
// increasing coordinate order starting from coordinate 0. The line has
// Extent(d) chips.
func (t *Torus) Line(i, d int) []int {
	c := t.Coord(i)
	line := make([]int, t.shape[d])
	for v := 0; v < t.shape[d]; v++ {
		c[d] = v
		line[v] = t.Index(c)
	}
	return line
}

// DORPath returns the directed links of the dimension-ordered route
// from one chip to another: correct each dimension in ascending order,
// stepping in whichever wrap direction is shorter (ties go +1). This
// is the standard minimal routing of direct-connect tori, used to
// model how an electrical torus carries traffic between non-adjacent
// chips. A self-path is empty.
func (t *Torus) DORPath(from, to int) []Link {
	var links []Link
	cur := t.Coord(from)
	dst := t.Coord(to)
	at := from
	for d := 0; d < t.Dims(); d++ {
		e := t.shape[d]
		diff := ((dst[d]-cur[d])%e + e) % e
		dir, steps := +1, diff
		if diff > e-diff {
			// Shorter the other way around the ring.
			dir, steps = -1, e-diff
		}
		for s := 0; s < steps; s++ {
			next := t.Neighbor(at, d, dir)
			links = append(links, Link{From: at, To: next})
			at = next
		}
		cur[d] = dst[d]
	}
	return links
}

// RingLinksForLine returns the directed links of the full dimension-d
// ring through chip i, in the +1 orientation: a closed cycle of
// Extent(d) links. For extent 2 the "cycle" is the two opposite
// directed links of the single cable. Dimensions of extent 1 yield no
// links.
func (t *Torus) RingLinksForLine(i, d int) []Link {
	e := t.shape[d]
	if e == 1 {
		return nil
	}
	line := t.Line(i, d)
	links := make([]Link, 0, e)
	for v := 0; v < e; v++ {
		links = append(links, Link{From: line[v], To: line[(v+1)%e]})
	}
	return links
}
