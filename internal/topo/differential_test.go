package topo

import (
	"testing"

	"lightpath/internal/netsim"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// This file carries the fabric-built leg of the solver's
// per-component contract: on random rail traffic, each connected
// component's results from one Sim.Run over the whole flow set must be
// bit-identical to Sim.Run on that component's flows alone — which the
// netsim differential tests hold bit-for-bit to the fairRates oracle.

// genTraffic draws random transfers over a rail fabric's paths.
func genTraffic(fabric *Rail, seed uint64, n int) []netsim.Flow[int] {
	r := rng.New(seed).Split("topo-differential-rail")
	flows := make([]netsim.Flow[int], 0, n)
	for i := 0; i < n; i++ {
		src := r.Intn(fabric.Endpoints())
		dst := r.Intn(fabric.Endpoints())
		if src == dst {
			dst = (dst + 1) % fabric.Endpoints()
		}
		flows = append(flows, netsim.Flow[int]{
			Bytes: unit.Bytes(1 + r.Intn(1<<22)),
			Via:   fabric.AppendPath(nil, src, dst),
		})
	}
	return flows
}

// flowComponents recomputes the sharing-graph partition of a flow set
// with a map-based union-find, independently of the solver's.
func flowComponents(flows []netsim.Flow[int]) (compOfFlow []int, nComp int) {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, f := range flows {
		if f.Bytes == 0 || len(f.Via) == 0 {
			continue
		}
		r0 := find(f.Via[0])
		for _, l := range f.Via[1:] {
			other := find(l)
			if other != r0 {
				if other < r0 {
					r0, other = other, r0
				}
				parent[other] = r0
			}
		}
	}
	compOfFlow = make([]int, len(flows))
	label := map[int]int{}
	for i, f := range flows {
		if f.Bytes == 0 || len(f.Via) == 0 {
			compOfFlow[i] = -1
			continue
		}
		root := find(f.Via[0])
		c, ok := label[root]
		if !ok {
			c = nComp
			label[root] = c
			nComp++
		}
		compOfFlow[i] = c
	}
	return compOfFlow, nComp
}

// TestShardedSolveAcrossTopologies runs the differential stack on
// random traffic over each fabric; the rail is the one fabric left.
func TestShardedSolveAcrossTopologies(t *testing.T) {
	rail, err := NewRail(4, 32, unit.GBps(40), unit.GBps(100))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("rail", func(t *testing.T) { checkShardedSolve(t, rail) })
}

// checkShardedSolve solves 20 seeds of random traffic on rail and
// checks each connected component against a solve of its flows alone.
func checkShardedSolve(t *testing.T, rail *Rail) {
	t.Helper()
	caps := rail.Capacities()
	for seed := uint64(0); seed < 20; seed++ {
		flows := genTraffic(rail, seed, 200)

		var sim, solo netsim.Sim[int]
		got, err := sim.Run(flows, caps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Each component bit-identical to a solve of its flows alone.
		compOfFlow, nComp := flowComponents(flows)
		for c := 0; c < nComp; c++ {
			var sub []netsim.Flow[int]
			var idx []int
			for i := range flows {
				if compOfFlow[i] == c {
					sub = append(sub, flows[i])
					idx = append(idx, i)
				}
			}
			want, err := solo.Run(sub, caps)
			if err != nil {
				t.Fatalf("seed %d component %d: %v", seed, c, err)
			}
			for j, i := range idx {
				if got.FlowEnd[i] != want.FlowEnd[j] {
					t.Fatalf("seed %d component %d flow %d: whole solve %v, solo solve %v",
						seed, c, i, got.FlowEnd[i], want.FlowEnd[j])
				}
				if got.Delivered[i] != want.Delivered[j] {
					t.Fatalf("seed %d component %d flow %d: delivered diverged from solo solve", seed, c, i)
				}
			}
		}
	}
}
