package netsim

import (
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// This file differentially tests the component-sharded solver
// (RunSharded, shard.go): each component's results must be
// bit-identical to running the whole solver — and the fairRates
// oracle — on that component's flows alone.

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

// checkShardedCase runs the full differential stack on one flow set:
// every component bit-identical to both the production solver and the
// fairRates oracle run on the component's flows alone.
func checkShardedCase(t testing.TB, flows []Flow[int], caps map[int]unit.BitRate) {
	t.Helper()
	var sim Sim[int]
	got, err := sim.RunSharded(flows, caps)
	if err != nil {
		return
	}
	compOfFlow, nComp := components(flows)
	for c := 0; c < nComp; c++ {
		var sub []Flow[int]
		var idx []int
		for i, f := range flows {
			if compOfFlow[i] == c {
				sub = append(sub, f)
				idx = append(idx, i)
			}
		}
		want, err := Run(sub, caps)
		if err != nil {
			t.Fatalf("component %d: %v", c, err)
		}
		oracle, err := oracleRun(sub, caps)
		if err != nil {
			t.Fatalf("component %d oracle: %v", c, err)
		}
		for j, i := range idx {
			if got.FlowEnd[i] != want.FlowEnd[j] {
				t.Fatalf("component %d flow %d end: sharded %v, solo solve %v", c, i, got.FlowEnd[i], want.FlowEnd[j])
			}
			if got.FlowEnd[i] != oracle.FlowEnd[j] {
				t.Fatalf("component %d flow %d end: sharded %v, oracle %v", c, i, got.FlowEnd[i], oracle.FlowEnd[j])
			}
			if got.Delivered[i] != want.Delivered[j] {
				t.Fatalf("component %d flow %d delivered: sharded %v, solo solve %v", c, i, got.Delivered[i], want.Delivered[j])
			}
		}
	}
	// Zero-byte flows finish at t=0 in every implementation.
	for i, f := range flows {
		if f.Bytes == 0 && got.FlowEnd[i] != 0 {
			t.Fatalf("zero-byte flow %d ended at %v", i, got.FlowEnd[i])
		}
	}
}

// TestShardedMatchesSequentialAndOracle sweeps seeded multi-component
// flow sets through the whole differential stack.
func TestShardedMatchesSequentialAndOracle(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		flows, caps := genShardCase(seed)
		checkShardedCase(t, flows, caps)
	}
}

// TestShardedSingleComponentMatchesRun pins the contract's anchor
// case: with one component, RunSharded and Run interleave completions
// identically, so the whole Result must be bitwise equal.
func TestShardedSingleComponentMatchesRun(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		flows, caps := genCase(seed) // single shared pool: usually one component
		if _, nComp := components(flows); nComp != 1 {
			continue
		}
		want, wantErr := Run(flows, caps)
		var sim Sim[int]
		got, gotErr := sim.RunSharded(flows, caps)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: error divergence: Run %v, RunSharded %v", seed, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("seed %d: makespan: RunSharded %v, Run %v", seed, got.Makespan, want.Makespan)
		}
		for i := range flows {
			if got.FlowEnd[i] != want.FlowEnd[i] {
				t.Fatalf("seed %d: flow %d end: RunSharded %v, Run %v", seed, i, got.FlowEnd[i], want.FlowEnd[i])
			}
		}
	}
}

// TestShardedReuseAcrossCases reruns many cases through one Sim:
// stale scratch from a larger prior case must never leak into a later
// case.
func TestShardedReuseAcrossCases(t *testing.T) {
	var sim Sim[int]
	for seed := uint64(0); seed < 60; seed++ {
		flows, caps := genShardCase(seed)
		got, gotErr := sim.RunSharded(flows, caps)
		var fresh Sim[int]
		want, wantErr := fresh.RunSharded(flows, caps)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: error divergence: reused %v, fresh %v", seed, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("seed %d: makespan: reused %v, fresh %v", seed, got.Makespan, want.Makespan)
		}
		for i := range flows {
			if got.FlowEnd[i] != want.FlowEnd[i] {
				t.Fatalf("seed %d: flow %d end: reused %v, fresh %v", seed, i, got.FlowEnd[i], want.FlowEnd[i])
			}
		}
	}
}

// TestShardedBuildErrors checks the validation prologue rejects the
// same invalid flow sets as Run.
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
		if _, err := sim.RunSharded(tc.flows, caps); err == nil {
			t.Errorf("%s: RunSharded accepted an invalid flow set", tc.name)
		}
	}
}

// FuzzComponentPartition pins the sharding invariant the per-component
// contract rests on: no flow and no resource may span two shards.
// Every flow's resources share its component, the component groupings
// cover every flow and resource exactly once, and each component
// solves bit-identically to Run and the oracle on its flows alone. The
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
		if _, err := sim.build(flows, caps); err != nil {
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
		checkShardedCase(t, flows, caps)
	})
}
