package route

import (
	"fmt"

	"lightpath/internal/netsim"
	"lightpath/internal/topo"
	"lightpath/internal/unit"
)

// LinkAllocator places transfers onto a generalized topo.Topology and
// materializes them as netsim flows. Where Allocator is the wafer
// circuit controller — pathfinding over waveguide and fiber occupancy
// — LinkAllocator is its fabric-scale counterpart for the rail and
// mesh topologies, whose paths are fixed by the fabric: its job is
// bulk placement at millions-of-flows scale without per-flow
// allocation, plus the link-load bookkeeping campaigns report.
//
// All Via slices share one backing arena, so a million placements
// cost a handful of slice growths instead of a million small
// allocations, and the materialized flow set is cache-dense for the
// solver's interning pass. Placements are deterministic: the flow
// order is the Place call order and paths come from the topology's
// deterministic AppendPath.
type LinkAllocator struct {
	topo topo.Topology

	// arena backs every placed path; starts[i]:starts[i+1] is flow i's
	// span. Via slices are cut from the arena only in Flows, after the
	// arena has stopped growing, so growth never invalidates them.
	arena  []int
	starts []int
	bytes  []unit.Bytes

	// load counts placed flows per link id.
	load []int

	// flows is the cached materialization; nil after a mutation.
	flows []netsim.Flow[int]
}

// NewLinkAllocator constructs an empty allocator over a topology.
func NewLinkAllocator(t topo.Topology) *LinkAllocator {
	return &LinkAllocator{
		topo:   t,
		starts: []int{0},
		load:   make([]int, t.Links()),
	}
}

// Len returns the number of placed flows.
func (a *LinkAllocator) Len() int { return len(a.bytes) }

// Place appends a transfer of the given size from src to dst, routed
// on the topology's deterministic path. It panics on out-of-range
// endpoints (via the topology) and on negative sizes.
func (a *LinkAllocator) Place(src, dst int, bytes unit.Bytes) {
	if bytes < 0 {
		panic(fmt.Sprintf("route: negative transfer size %v", bytes))
	}
	a.arena = a.topo.AppendPath(a.arena, src, dst)
	for _, l := range a.arena[a.starts[len(a.starts)-1]:] {
		a.load[l]++
	}
	a.starts = append(a.starts, len(a.arena))
	a.bytes = append(a.bytes, bytes)
	a.flows = nil
}

// Flows materializes the placed transfers as netsim flows, in
// placement order. The Via slices alias the allocator's arena and the
// returned slice is cached: both are valid until the next Place.
func (a *LinkAllocator) Flows() []netsim.Flow[int] {
	if a.flows != nil || len(a.bytes) == 0 {
		return a.flows
	}
	a.flows = make([]netsim.Flow[int], len(a.bytes))
	for i := range a.bytes {
		a.flows[i] = netsim.Flow[int]{
			Bytes: a.bytes[i],
			Via:   a.arena[a.starts[i]:a.starts[i+1]],
		}
	}
	return a.flows
}

// Capacities returns the topology's link-capacity map for the solver.
func (a *LinkAllocator) Capacities() map[int]unit.BitRate {
	return topo.Capacities(a.topo)
}

// MaxLoad returns the most-loaded link and its flow count (the
// lowest-id link on ties; link -1 when nothing is placed).
func (a *LinkAllocator) MaxLoad() (link, flows int) {
	link = -1
	for l, n := range a.load {
		if n > flows {
			link, flows = l, n
		}
	}
	return link, flows
}

// OversubscribedLinks counts links whose placed demand — each flow
// charged its full bottleneck-free share, i.e. just the flow count
// times an even split — exceeds what the link can serve at the given
// per-flow rate. It is the campaign's quick congestion census; the
// fluid solver computes the real rates.
func (a *LinkAllocator) OversubscribedLinks(perFlow unit.BitRate) int {
	over := 0
	for l, n := range a.load {
		if unit.BitRate(n)*perFlow > a.topo.LinkCapacity(l) {
			over++
		}
	}
	return over
}
