package netsim

import (
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// This file tests the component partition Sim.Run shards its solve
// by: no flow and no resource may span two components, and each
// component must solve as if it were alone.

// genShardCase derives a random flow set with a *known* component
// structure from a seed: up to six resource clusters with disjoint id
// ranges, every flow confined to one cluster. Clusters are exactly
// the sharing-graph components (each cluster's resource pool is small
// enough that its flows almost surely connect it; the checks don't
// assume they do — they recompute components from the Via lists).
func genShardCase(seed uint64) ([]Flow[int], map[int]unit.BitRate) {
	r := rng.New(seed).Split("shard-differential")
	clusters := 1 + r.Intn(6)
	caps := make(map[int]unit.BitRate)
	var flows []Flow[int]
	for cl := 0; cl < clusters; cl++ {
		base := cl * 100
		nRes := 1 + r.Intn(8)
		for i := 0; i < nRes; i++ {
			caps[base+i] = unit.GBps(float64(1 + r.Intn(8)))
		}
		nFlows := 1 + r.Intn(12)
		for i := 0; i < nFlows; i++ {
			if r.Intn(10) == 0 {
				flows = append(flows, Flow[int]{Bytes: 0})
				continue
			}
			via := make([]int, 1+r.Intn(4))
			for j := range via {
				via[j] = base + r.Intn(nRes)
			}
			flows = append(flows, Flow[int]{
				Bytes: unit.Bytes(1 + r.Intn(1<<20)),
				Via:   via,
			})
		}
	}
	return flows, caps
}

// components recomputes the sharing-graph partition independently of
// the solver: union-find over resources joined by each flow's Via,
// then flows grouped by their first resource's root. Zero-byte flows
// belong to no component (index -1).
func components(flows []Flow[int]) (compOfFlow []int, nComp int) {
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
		for _, r := range f.Via[1:] {
			other := find(r)
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

// TestShardedMatchesSequentialAndOracle sweeps seeded multi-component
// flow sets through the whole differential stack: rates and completion
// times of every component bit-identical to the oracle run on that
// component's flows alone.
func TestShardedMatchesSequentialAndOracle(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		flows, caps := genShardCase(seed)
		if err := diffAgainstOracle(flows, caps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestShardedReuseAcrossCases reruns multi-component cases through one
// Sim: stale per-component scratch from a larger prior case must never
// leak into a later case.
func TestShardedReuseAcrossCases(t *testing.T) {
	checkReuse(t, genShardCase)
}

// TestShardedBuildErrors checks the validation prologue rejects
// invalid flow sets before any component is solved.
func TestShardedBuildErrors(t *testing.T) {
	caps := map[int]unit.BitRate{0: unit.GBps(1)}
	cases := []struct {
		name  string
		flows []Flow[int]
	}{
		{"unknown resource", []Flow[int]{{Bytes: 1, Via: []int{7}}}},
		{"empty via", []Flow[int]{{Bytes: 1}}},
		{"negative bytes", []Flow[int]{{Bytes: -1, Via: []int{0}}}},
	}
	for _, tc := range cases {
		var sim Sim[int]
		if _, err := sim.Run(tc.flows, caps); err == nil {
			t.Errorf("%s: Run accepted an invalid flow set", tc.name)
		}
	}
}

// FuzzComponentPartition pins the sharding invariant the per-component
// contract rests on: no flow and no resource may span two shards.
// Every flow's resources share its component, the component groupings
// cover every flow and resource exactly once, and each component
// solves bit-identically to the oracle on its flows alone. The
// committed corpus under testdata/fuzz keeps the structurally
// interesting partitions (single cluster, many clusters, zero-byte
// mixes) replaying on every `go test` run.
func FuzzComponentPartition(f *testing.F) {
	for _, seed := range []uint64{0, 1, 5, 33, 77, 1024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		flows, caps := genShardCase(seed)
		var sim Sim[int]
		if err := sim.build(flows, caps); err != nil {
			t.Fatalf("build: %v", err)
		}

		// Every flow's resources agree on one component, and it is the
		// flow's component.
		for i := range flows {
			lo, hi := sim.viaStart[i], sim.viaStart[i+1]
			if lo == hi {
				if sim.compOfFlow[i] != -1 {
					t.Fatalf("zero-byte flow %d assigned component %d", i, sim.compOfFlow[i])
				}
				continue
			}
			c := sim.compOfFlow[i]
			for k := lo; k < hi; k++ {
				if got := sim.compOfRes[sim.viaRes[k]]; got != c {
					t.Fatalf("flow %d spans shards: flow component %d, resource %d component %d",
						i, c, sim.viaRes[k], got)
				}
			}
		}

		// compFlows and compRes are exact partitions: each flow and
		// each resource appears in exactly one shard's group.
		flowSeen := make([]int, len(flows))
		for c := 0; c < sim.nComp; c++ {
			for _, fl := range sim.compFlows[sim.compFlowStart[c]:sim.compFlowStart[c+1]] {
				flowSeen[fl]++
				if sim.compOfFlow[fl] != int32(c) {
					t.Fatalf("flow %d grouped under component %d but assigned %d", fl, c, sim.compOfFlow[fl])
				}
			}
		}
		for i := range flows {
			want := 1
			if sim.compOfFlow[i] < 0 {
				want = 0
			}
			if flowSeen[i] != want {
				t.Fatalf("flow %d appears in %d shards, want %d", i, flowSeen[i], want)
			}
		}
		resSeen := make([]int, len(sim.names))
		for c := 0; c < sim.nComp; c++ {
			for _, r := range sim.compRes[sim.compResStart[c]:sim.compResStart[c+1]] {
				resSeen[r]++
				if sim.compOfRes[r] != int32(c) {
					t.Fatalf("resource %d grouped under component %d but assigned %d", r, c, sim.compOfRes[r])
				}
			}
		}
		for r := range resSeen {
			if resSeen[r] != 1 {
				t.Fatalf("resource %d appears in %d shards, want 1", r, resSeen[r])
			}
		}

		// The reverse index respects the partition too: every flow
		// crossing a resource lives in the resource's component.
		for r := 0; r < len(sim.names); r++ {
			for _, fl := range sim.resFlows[sim.resStart[r]:sim.resStart[r+1]] {
				if sim.compOfFlow[fl] != sim.compOfRes[r] {
					t.Fatalf("resource %d (component %d) crossed by flow %d of component %d",
						r, sim.compOfRes[r], fl, sim.compOfFlow[fl])
				}
			}
		}

		// And the partition's purpose holds: each component solves as
		// if it were alone.
		if err := diffRun(&sim, flows, caps); err != nil {
			t.Fatal(err)
		}
	})
}
