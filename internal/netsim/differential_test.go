package netsim

import (
	"fmt"
	"math"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// This file differentially tests the production solver (Sim, the
// interned CSR implementation in solver.go) against the reference
// oracle fairRates: on randomized flow sets the two must agree on
// every rate and every completion time bit for bit, because the CSR
// solver claims byte-identical output, not just approximate fairness.

// oracleRun is the pre-interning simulator loop: full fairRates
// recompute at every completion event. It is deliberately a verbatim
// transcription of the original Run so Sim.Run has an independent
// implementation to diverge from.
func oracleRun[R comparable](flows []Flow[R], caps map[R]unit.BitRate) (Result, error) {
	n := len(flows)
	res := Result{FlowEnd: make([]unit.Seconds, n), Delivered: make([]unit.Bytes, n)}
	remaining := make([]float64, n)
	active := 0
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
		if f.Bytes > 0 {
			active++
		}
	}
	var scratch rateScratch[R]
	now := 0.0
	for active > 0 {
		rates := fairRatesInto(&scratch, flows, caps, remaining)
		dt := math.Inf(1)
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			if rates[i] <= 0 {
				return Result{}, fmt.Errorf("%w: flow %d received zero rate", ErrStarvedFlow, i)
			}
			if t := remaining[i] / rates[i]; t < dt {
				dt = t
			}
		}
		now += dt
		for i := range flows {
			if remaining[i] <= 0 {
				continue
			}
			remaining[i] -= rates[i] * dt
			if remaining[i] <= 1e-6 {
				remaining[i] = 0
				res.FlowEnd[i] = unit.Seconds(now)
				res.Delivered[i] = flows[i].Bytes
				active--
			}
		}
	}
	for i := range flows {
		if res.FlowEnd[i] > res.Makespan {
			res.Makespan = res.FlowEnd[i]
		}
	}
	return res, nil
}

// genCase derives a random but valid flow set from a seed: nRes
// resources with varied capacities, flows crossing 1..4 of them
// (duplicates allowed — a flow may charge a resource twice), a
// sprinkling of zero-byte flows, and overlap density controlled by
// how small the resource pool is relative to the flow count.
func genCase(seed uint64) ([]Flow[int], map[int]unit.BitRate) {
	r := rng.New(seed).Split("differential")
	nRes := 1 + r.Intn(12)
	nFlows := 1 + r.Intn(24)
	caps := make(map[int]unit.BitRate, nRes)
	for i := 0; i < nRes; i++ {
		caps[i] = unit.GBps(float64(1 + r.Intn(8)))
	}
	flows := make([]Flow[int], nFlows)
	for i := range flows {
		if r.Intn(8) == 0 {
			// Zero-byte flow: completes at t=0 regardless of Via.
			flows[i] = Flow[int]{Bytes: 0}
			continue
		}
		via := make([]int, 1+r.Intn(4))
		for j := range via {
			via[j] = r.Intn(nRes)
		}
		flows[i] = Flow[int]{
			Bytes: unit.Bytes(1 + r.Intn(1<<20)),
			Via:   via,
		}
	}
	return flows, caps
}

// checkAgainstOracle runs both implementations on the flow set and
// fails on the first bitwise divergence in rates, completion times,
// or delivered bytes.
func checkAgainstOracle(t testing.TB, flows []Flow[int], caps map[int]unit.BitRate) {
	t.Helper()

	// Rates at t=0: the CSR solver's first full refill against the
	// oracle's progressive filling.
	remaining := make([]float64, len(flows))
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
	}
	want := fairRates(flows, caps, remaining)
	var sim Sim[int]
	if _, err := sim.build(flows, caps); err != nil {
		t.Fatalf("build: %v", err)
	}
	sim.computeRates()
	for i := range flows {
		if sim.rates[i] != want[i] {
			t.Fatalf("initial rate of flow %d: CSR %v, oracle %v", i, sim.rates[i], want[i])
		}
	}

	// Incremental recompute: retire flows one at a time (ascending, a
	// deterministic order distinct from completion order) and compare
	// the dirty-component refill against a from-scratch oracle call.
	for i := range flows {
		if remaining[i] == 0 {
			continue
		}
		remaining[i] = 0
		sim.active[i] = false
		sim.markFlowDirty(i)
		sim.computeRates()
		want = fairRates(flows, caps, remaining)
		for j := range flows {
			if remaining[j] > 0 && sim.rates[j] != want[j] {
				t.Fatalf("after retiring flow %d, rate of flow %d: CSR %v, oracle %v", i, j, sim.rates[j], want[j])
			}
		}
	}

	// End-to-end: completion times and delivered bytes, through the
	// same Sim (Run rebuilds every structure the retirements touched).
	got, gotErr := sim.Run(flows, caps)
	ref, refErr := oracleRun(flows, caps)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence: CSR %v, oracle %v", gotErr, refErr)
	}
	if gotErr != nil {
		return
	}
	if got.Makespan != ref.Makespan {
		t.Fatalf("makespan: CSR %v, oracle %v", got.Makespan, ref.Makespan)
	}
	for i := range flows {
		if got.FlowEnd[i] != ref.FlowEnd[i] {
			t.Fatalf("flow %d end: CSR %v, oracle %v", i, got.FlowEnd[i], ref.FlowEnd[i])
		}
		if got.Delivered[i] != ref.Delivered[i] {
			t.Fatalf("flow %d delivered: CSR %v, oracle %v", i, got.Delivered[i], ref.Delivered[i])
		}
	}
}

// TestSolverMatchesOracleProperty sweeps seeded random flow sets —
// varying flow counts, shared-resource overlap, and zero-byte flows —
// asserting the CSR solver and the oracle agree bit for bit.
func TestSolverMatchesOracleProperty(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		flows, caps := genCase(seed)
		checkAgainstOracle(t, flows, caps)
	}
}

// TestSolverReuseAcrossCases reruns many cases through one Sim, since
// production callers hold a Sim across flow sets and stale scratch
// from a larger prior case must never leak into a smaller one.
func TestSolverReuseAcrossCases(t *testing.T) {
	var sim Sim[int]
	for seed := uint64(0); seed < 50; seed++ {
		flows, caps := genCase(seed)
		got, gotErr := sim.Run(flows, caps)
		ref, refErr := oracleRun(flows, caps)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("seed %d: error divergence: CSR %v, oracle %v", seed, gotErr, refErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Makespan != ref.Makespan {
			t.Fatalf("seed %d: makespan: CSR %v, oracle %v", seed, got.Makespan, ref.Makespan)
		}
		for i := range flows {
			if got.FlowEnd[i] != ref.FlowEnd[i] {
				t.Fatalf("seed %d: flow %d end: CSR %v, oracle %v", seed, i, got.FlowEnd[i], ref.FlowEnd[i])
			}
		}
	}
}

// FuzzFairRates feeds arbitrary seeds through the same generator and
// differential check; the committed corpus under testdata/fuzz pins
// the structurally interesting cases (single flow, heavy overlap,
// zero-byte mixes) so every `go test` run replays them.
func FuzzFairRates(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1023} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		flows, caps := genCase(seed)
		checkAgainstOracle(t, flows, caps)
	})
}
