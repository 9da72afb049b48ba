// Package sched implements optical resource-allocation policies — the
// algorithms the paper says server-scale optics will need (§1: "new
// optical resource allocation algorithms will be needed to arrive at
// the appropriate trade-off between optical reconfiguration delay and
// end-to-end server-scale interconnect performance"; §5 raises the
// same challenge for dynamic traffic).
//
// The model: a workload is a sequence of communication phases, each a
// set of (source, destination, bytes) pairs. Before each phase the
// policy chooses the fabric's circuit configuration. Pairs with a
// direct circuit transfer in one hop; pairs without one relay over
// the configuration's circuit graph (consuming intermediate chips'
// circuits, hop by hop); changing the configuration costs one MZI
// reconfiguration delay r. Policies trade r against relay stretch.
package sched

import (
	"fmt"
	"sort"

	"lightpath/internal/unit"
)

// Pair is one demand: Bytes to move from Src to Dst.
type Pair struct {
	Src, Dst int
	Bytes    unit.Bytes
}

// Demand is one communication phase.
type Demand struct {
	Pairs []Pair
}

// Config is a circuit configuration: an undirected set of chip pairs
// with established circuits. Configs are comparable via Key.
type Config struct {
	edges map[[2]int]bool
}

// NewConfig builds a configuration from undirected chip pairs.
func NewConfig(pairs ...[2]int) Config {
	c := Config{edges: make(map[[2]int]bool, len(pairs))}
	for _, p := range pairs {
		c.add(p[0], p[1])
	}
	return c
}

func norm(a, b int) [2]int {
	if a > b {
		return [2]int{b, a}
	}
	return [2]int{a, b}
}

func (c *Config) add(a, b int) {
	if a == b {
		return
	}
	c.edges[norm(a, b)] = true
}

// Has reports whether a direct circuit exists between the chips.
func (c Config) Has(a, b int) bool { return c.edges[norm(a, b)] }

// Degree returns the number of circuits terminating at the chip.
func (c Config) Degree(chip int) int {
	n := 0
	for e := range c.edges {
		if e[0] == chip || e[1] == chip {
			n++
		}
	}
	return n
}

// MaxDegree returns the largest per-chip circuit count — checked
// against the tile's SerDes/laser budget.
func (c Config) MaxDegree() int {
	deg := map[int]int{}
	for e := range c.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	max := 0
	for _, n := range deg {
		if n > max {
			max = n
		}
	}
	return max
}

// Key returns a canonical string identity for memoization.
func (c Config) Key() string {
	keys := make([][2]int, 0, len(c.edges))
	for e := range c.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := ""
	for _, e := range keys {
		out += fmt.Sprintf("%d-%d;", e[0], e[1])
	}
	return out
}

// Equal reports whether two configurations hold the same circuits.
func (c Config) Equal(o Config) bool {
	if len(c.edges) != len(o.edges) {
		return false
	}
	for e := range c.edges {
		if !o.edges[e] {
			return false
		}
	}
	return true
}

// hops returns the shortest circuit-graph path length between the
// chips (BFS), or -1 when disconnected.
func (c Config) hops(a, b int) int {
	if a == b {
		return 0
	}
	if c.Has(a, b) {
		return 1
	}
	// Build adjacency lists in sorted edge order so BFS tie-breaking
	// (and any future use of the lists) is reproducible.
	edges := make([][2]int, 0, len(c.edges))
	for e := range c.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	adj := map[int][]int{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := map[int]int{a: 0}
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, ok := dist[nb]; ok {
				continue
			}
			dist[nb] = dist[cur] + 1
			if nb == b {
				return dist[nb]
			}
			queue = append(queue, nb)
		}
	}
	return -1
}

// Params are the fabric constants the policies optimize against.
type Params struct {
	// ChipBandwidth is a chip's total egress B; a chip with k
	// circuits drives each at B/k.
	ChipBandwidth unit.BitRate
	// Reconfig is r, paid whenever the configuration changes.
	Reconfig unit.Seconds
	// PortLimit caps circuits per chip; configurations above it are
	// rejected.
	PortLimit int
}

// DemandConfig returns the configuration holding exactly the demand's
// direct circuits.
func DemandConfig(d Demand) Config {
	c := NewConfig()
	for _, p := range d.Pairs {
		c.add(p.Src, p.Dst)
	}
	return c
}

// RingConfig returns a static ring over the chips — the
// never-reconfigure baseline: always connected, so any pair is
// reachable by relaying, at up to n/2 hops of stretch.
func RingConfig(chips []int) Config {
	c := NewConfig()
	for i := range chips {
		c.add(chips[i], chips[(i+1)%len(chips)])
	}
	return c
}

// ServeTime returns the time for one phase's demand under the given
// configuration: per source chip, its pairs transfer sequentially,
// each over hops(src,dst) circuit hops at B/degree per hop; source
// chips proceed in parallel (the phase lasts as long as the busiest
// source). Unreachable pairs make the phase unserveable (+Inf is
// represented by ok=false).
func (p Params) ServeTime(d Demand, c Config) (unit.Seconds, bool) {
	perSrc := map[int]unit.Seconds{}
	for _, pair := range d.Pairs {
		if pair.Bytes <= 0 {
			continue
		}
		h := c.hops(pair.Src, pair.Dst)
		if h < 0 {
			return 0, false
		}
		deg := c.Degree(pair.Src)
		if deg == 0 {
			return 0, false
		}
		bw := p.ChipBandwidth / unit.BitRate(deg)
		perSrc[pair.Src] += bw.TimeFor(pair.Bytes * unit.Bytes(h))
	}
	var worst unit.Seconds
	for _, t := range perSrc {
		if t > worst {
			worst = t
		}
	}
	return worst, true
}

// validConfig checks the port budget.
func (p Params) validConfig(c Config) bool {
	return p.PortLimit <= 0 || c.MaxDegree() <= p.PortLimit
}
