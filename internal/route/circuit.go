// Package route establishes end-to-end optical circuits on a rack of
// LIGHTPATH wafers: it finds bus-waveguide paths between chips,
// allocates the waveguide segments and inter-wafer fibers so that
// circuits never overlap (the DESIGN.md disjointness invariant and the
// paper's §4.2 "non-overlapping optical circuits"), programs the MZI
// switches, and evaluates each circuit's optical link budget.
//
// Two allocation regimes are provided, mirroring the paper's §5
// "Decentralized algorithms" challenge: a centralized allocator with a
// global view, and a decentralized optimistic allocator in which
// requests propose paths concurrently and retry on conflict.
package route

import (
	"fmt"

	"lightpath/internal/phy"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Segment is one allocated bus-waveguide span on a specific wafer.
type Segment struct {
	Wafer int
	Ref   wafer.BusRef
}

// String formats the segment.
func (s Segment) String() string {
	return fmt.Sprintf("wafer %d %s", s.Wafer, s.Ref)
}

// Circuit is an established bidirectional chip-to-chip optical
// circuit.
type Circuit struct {
	ID int
	// A and B are the endpoint chips.
	A, B int
	// Width is the number of wavelengths carrying the circuit; its
	// bandwidth is Width x the per-wavelength capacity.
	Width int
	// Segments are the allocated bus spans, in path order from A to B.
	Segments []Segment
	// Fibers are the allocated inter-wafer fibers, in path order.
	Fibers []wafer.FiberRef
	// EstablishedAt is when the circuit's switches were programmed.
	EstablishedAt unit.Seconds
	// Link is the circuit's optical budget evaluation.
	Link phy.LinkReport

	// Inline backing storage for Segments/Fibers (see setPath). Typical
	// paths fit here, so establishing a circuit costs one allocation
	// (the Circuit itself) rather than three: on a two-wafer rack a
	// circuit has at most four spans (an L-shape at each end, or a
	// three-leg detour) and one fiber. A longer path spills to the
	// heap; sizing the stores for it would grow every circuit.
	segStore [4]Segment
	fibStore [2]wafer.FiberRef
}

// setPath points Segments/Fibers at circuit-owned copies of the given
// path: the inline stores when the path fits, fresh heap slices
// otherwise. The inputs may live in caller scratch — nothing aliases
// them afterward.
func (c *Circuit) setPath(segs []Segment, fibers []wafer.FiberRef) {
	if len(segs) <= len(c.segStore) {
		c.Segments = c.segStore[:copy(c.segStore[:], segs)]
	} else {
		c.Segments = append([]Segment(nil), segs...)
	}
	if len(fibers) <= len(c.fibStore) {
		c.Fibers = c.fibStore[:copy(c.fibStore[:], fibers)]
	} else {
		c.Fibers = append([]wafer.FiberRef(nil), fibers...)
	}
}

// ReadyAt returns when the circuit carries traffic: every switch
// along it settles one reconfiguration latency after programming.
func (c *Circuit) ReadyAt() unit.Seconds {
	return c.EstablishedAt + phy.ReconfigLatency
}

// Bandwidth returns the circuit's data rate for the given
// per-wavelength capacity.
func (c *Circuit) Bandwidth(perWavelength unit.BitRate) unit.BitRate {
	return unit.BitRate(c.Width) * perWavelength
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit %d: chip %d <-> chip %d, width %d, %d segments, %d fibers, ready %v",
		c.ID, c.A, c.B, c.Width, len(c.Segments), len(c.Fibers), c.ReadyAt())
}

// SharesResources reports whether two circuits overlap on any bus
// segment or fiber — used by tests to assert the disjointness
// invariant.
func (c *Circuit) SharesResources(o *Circuit) bool {
	for _, s := range c.Segments {
		for _, t := range o.Segments {
			if s.Wafer == t.Wafer && s.Ref.Orient == t.Ref.Orient &&
				s.Ref.Lane == t.Ref.Lane && s.Ref.Bus == t.Ref.Bus &&
				s.Ref.Span.Lo <= t.Ref.Span.Hi && t.Ref.Span.Lo <= s.Ref.Span.Hi {
				return true
			}
		}
	}
	for _, f := range c.Fibers {
		for _, g := range o.Fibers {
			if f == g {
				return true
			}
		}
	}
	return false
}
