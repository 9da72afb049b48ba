// Package topo generalizes the repo's interconnect substrates behind
// one Topology interface: a fabric is a set of endpoints joined by
// dense-integer-id directed links with capacities, over which a
// transfer follows a deterministic link path. The three
// implementations cover the scales the paper and its follow-ons span:
//
//   - TorusFabric adapts internal/torus — the TPUv4-style electrical
//     torus of the paper's §4 scenarios — with dimension-ordered
//     routing.
//   - Rail models the rail-optimized datacenter fabric of the Opus
//     follow-on: R rails × S servers, every server holding one NIC
//     per rail, with non-blocking rail switches and a per-server
//     internal bus for cross-rail hops.
//   - Mesh cascades W LIGHTPATH wafers (internal/wafer geometry) into
//     a full mesh over inter-wafer trunk fibers (§4.2's "10s of
//     fibers across servers").
//
// Link ids are dense in [0, Links()), so they intern trivially as
// netsim resources and index flat arrays in hot loops; AppendPath is
// append-style so callers building millions of flows can share one
// backing arena and keep path construction allocation-free.
package topo

import (
	"fmt"

	"lightpath/internal/unit"
)

// Topology is a fabric of endpoints joined by directed,
// capacity-bearing links. Links are identified by dense integers in
// [0, Links()); endpoints by dense integers in [0, Endpoints()).
// Implementations must be deterministic: the same (src, dst) always
// yields the same path, and link ids never depend on construction
// order or map iteration.
type Topology interface {
	// Name identifies the fabric family ("torus", "rail", "mesh") for
	// CLI flags, CSV headers, and campaign labels.
	Name() string

	// Endpoints returns the number of traffic sources/sinks.
	Endpoints() int

	// Links returns the number of directed links; valid link ids are
	// exactly [0, Links()).
	Links() int

	// LinkCapacity returns the bandwidth of one link.
	LinkCapacity(link int) unit.BitRate

	// AppendPath appends the link ids a transfer from src to dst
	// crosses, in traversal order, and returns the extended slice. A
	// self-path (src == dst) appends nothing. It must not allocate
	// beyond growing buf, so callers can amortize one arena across
	// millions of paths.
	AppendPath(buf []int, src, dst int) []int
}

// Capacities materializes a topology's link capacities as the
// resource-capacity map netsim.Sim.Run consumes, keyed by dense link
// id.
func Capacities(t Topology) map[int]unit.BitRate {
	caps := make(map[int]unit.BitRate, t.Links())
	for l := 0; l < t.Links(); l++ {
		caps[l] = t.LinkCapacity(l)
	}
	return caps
}

// checkEndpoint panics on an out-of-range endpoint; fabric AppendPath
// implementations call it so path bugs surface at the call site
// instead of as silent bogus link ids.
func checkEndpoint(t Topology, e int) {
	if e < 0 || e >= t.Endpoints() {
		panic(fmt.Sprintf("topo: endpoint %d out of range [0, %d) on %s", e, t.Endpoints(), t.Name()))
	}
}
