package topo

import (
	"fmt"

	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// TorusFabric adapts internal/torus — the paper's TPUv4-style
// electrical torus — to the Topology interface. Endpoints are chips
// (the torus's dense chip index); links are the torus's directed
// adjacent-chip links, assigned dense ids by their position in
// torus.AllLinks() enumeration order (a pure function of the shape,
// so ids are stable across constructions). Paths are dimension-ordered
// routes (torus.DORPath), the standard minimal routing the repo's
// congestion model already uses.
type TorusFabric struct {
	t      *torus.Torus
	linkBW unit.BitRate
	links  []torus.Link
	ids    map[torus.Link]int
}

// NewTorusFabric wraps a torus of the given shape with uniform
// per-link bandwidth.
func NewTorusFabric(shape torus.Shape, linkBW unit.BitRate) (*TorusFabric, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if linkBW <= 0 {
		return nil, fmt.Errorf("topo: non-positive torus link bandwidth")
	}
	t := torus.New(shape)
	links := t.AllLinks()
	ids := make(map[torus.Link]int, len(links))
	for i, l := range links {
		ids[l] = i
	}
	return &TorusFabric{t: t, linkBW: linkBW, links: links, ids: ids}, nil
}

// Name returns "torus".
func (f *TorusFabric) Name() string { return "torus" }

// Endpoints returns the chip count.
func (f *TorusFabric) Endpoints() int { return f.t.Size() }

// Links returns the directed link count.
func (f *TorusFabric) Links() int { return len(f.links) }

// LinkCapacity returns the uniform per-link bandwidth.
func (f *TorusFabric) LinkCapacity(int) unit.BitRate { return f.linkBW }

// AppendPath appends the dense link ids of the dimension-ordered
// route from src to dst.
func (f *TorusFabric) AppendPath(buf []int, src, dst int) []int {
	checkEndpoint(f, src)
	checkEndpoint(f, dst)
	for _, l := range f.t.DORPath(src, dst) {
		buf = append(buf, f.ids[l])
	}
	return buf
}
