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
// Sim.Run gives every connected component of the sharing graph its
// own clock, so its end-to-end contract is per component: each
// component's results equal the oracle simulation run on that
// component's flows alone.

// rateScratch is the reusable working storage of the oracle's max-min
// fair rate computation. oracleRun recomputes rates once per
// completion event through one scratch; a zero-value scratch is ready
// to use and is reset (not reallocated) on every call.
type rateScratch[R comparable] struct {
	rates    []float64
	frozen   []bool
	residual map[R]float64
	users    map[R]int
	order    []R
}

// reset prepares the scratch for n flows, reusing capacity.
func (s *rateScratch[R]) reset(n int, caps int) {
	if cap(s.rates) < n {
		s.rates = make([]float64, n)
		s.frozen = make([]bool, n)
	} else {
		s.rates = s.rates[:n]
		s.frozen = s.frozen[:n]
		for i := range s.rates {
			s.rates[i] = 0
			s.frozen[i] = false
		}
	}
	if s.residual == nil {
		s.residual = make(map[R]float64, caps)
		s.users = make(map[R]int, caps)
	} else {
		clear(s.residual)
		clear(s.users)
	}
	s.order = s.order[:0]
}

// fairRates computes max-min fair rates (bytes/second) by progressive
// filling: repeatedly find the most constrained resource, freeze its
// flows at the fair share, and remove them. It is the reference
// oracle the interned CSR solver (Sim, solver.go) is differentially
// tested against.
func fairRates[R comparable](flows []Flow[R], caps map[R]unit.BitRate, remaining []float64) []float64 {
	var s rateScratch[R]
	return fairRatesInto(&s, flows, caps, remaining)
}

// fairRatesInto is fairRates with caller-owned scratch; the returned
// slice aliases the scratch and is valid until the next call with the
// same scratch.
func fairRatesInto[R comparable](s *rateScratch[R], flows []Flow[R], caps map[R]unit.BitRate, remaining []float64) []float64 {
	s.reset(len(flows), len(caps))
	rates, frozen := s.rates, s.frozen
	// Residual capacity in bytes/second. order fixes the bottleneck
	// scan to first-use order so equal-share ties always resolve the
	// same way regardless of map iteration order.
	residual, users, order := s.residual, s.users, s.order
	for i, f := range flows {
		if remaining[i] <= 0 {
			frozen[i] = true
			continue
		}
		for _, r := range f.Via {
			if users[r] == 0 {
				order = append(order, r)
				residual[r] = caps[r].BytesPerSecond()
			}
			users[r]++
		}
	}
	// order is complete once the census above finishes; saving it here
	// (instead of in a deferred closure) keeps the call defer-free.
	s.order = order

	for {
		// Most constrained resource: minimal residual / users.
		var bestR R
		best := math.Inf(1)
		found := false
		for _, r := range order {
			n := users[r]
			if n == 0 {
				continue
			}
			if share := residual[r] / float64(n); share < best {
				best = share
				bestR = r
				found = true
			}
		}
		if !found {
			return rates
		}
		// Freeze every unfrozen flow crossing the bottleneck.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			crosses := false
			for _, r := range f.Via {
				if r == bestR {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rates[i] = best
			frozen[i] = true
			for _, r := range f.Via {
				residual[r] -= best
				if residual[r] < 0 {
					residual[r] = 0
				}
				users[r]--
			}
		}
	}
}

// oracleRun is the pre-interning simulator loop: one global clock and
// a full fairRates recompute at every completion event. It is
// deliberately a verbatim transcription of the original Run so Sim.Run
// has an independent implementation to diverge from; the checks below
// apply it to one component's flows at a time.
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

// diffAgainstOracle runs the rate-level and end-to-end differential
// checks on one flow set and reports the first bitwise divergence.
func diffAgainstOracle(flows []Flow[int], caps map[int]unit.BitRate) error {
	if err := diffRates(flows, caps); err != nil {
		return err
	}
	var sim Sim[int]
	return diffRun(&sim, flows, caps)
}

// diffRates compares the CSR solver's progressive filling with the
// oracle's: the rates at t=0, then the rates after each retirement.
// Flows retire one at a time (ascending, a deterministic order
// distinct from completion order), and only the retired flow's
// component is refilled, so every other component's cached rates must
// already equal a from-scratch oracle call.
func diffRates(flows []Flow[int], caps map[int]unit.BitRate) error {
	remaining := make([]float64, len(flows))
	for i, f := range flows {
		remaining[i] = float64(f.Bytes)
	}
	var sim Sim[int]
	if err := sim.build(flows, caps); err != nil {
		return fmt.Errorf("build: %v", err)
	}
	for c := 0; c < sim.nComp; c++ {
		sim.refill(int32(c))
	}
	want := fairRates(flows, caps, remaining)
	for i := range flows {
		if sim.rates[i] != want[i] {
			return fmt.Errorf("initial rate of flow %d: CSR %v, oracle %v", i, sim.rates[i], want[i])
		}
	}
	for i := range flows {
		if remaining[i] == 0 {
			continue
		}
		remaining[i] = 0
		sim.remaining[i] = 0
		sim.refill(sim.compOfFlow[i])
		want = fairRates(flows, caps, remaining)
		for j := range flows {
			if remaining[j] > 0 && sim.rates[j] != want[j] {
				return fmt.Errorf("after retiring flow %d, rate of flow %d: CSR %v, oracle %v", i, j, sim.rates[j], want[j])
			}
		}
	}
	return nil
}

// diffRun runs sim.Run on the whole flow set and oracleRun on each
// component's flows alone, and reports the first bitwise divergence in
// completion times, delivered bytes or makespan. Run must fail exactly
// when some component's oracle run fails.
func diffRun(sim *Sim[int], flows []Flow[int], caps map[int]unit.BitRate) error {
	got, gotErr := sim.Run(flows, caps)
	compOfFlow, nComp := components(flows)
	var makespan unit.Seconds
	for c := 0; c < nComp; c++ {
		var sub []Flow[int]
		var idx []int
		for i, f := range flows {
			if compOfFlow[i] == c {
				sub = append(sub, f)
				idx = append(idx, i)
			}
		}
		ref, refErr := oracleRun(sub, caps)
		if refErr != nil {
			if gotErr == nil {
				return fmt.Errorf("component %d: oracle failed (%v), Run succeeded", c, refErr)
			}
			return nil
		}
		if gotErr != nil {
			continue
		}
		for j, i := range idx {
			if got.FlowEnd[i] != ref.FlowEnd[j] {
				return fmt.Errorf("component %d flow %d end: CSR %v, oracle %v", c, i, got.FlowEnd[i], ref.FlowEnd[j])
			}
			if got.Delivered[i] != ref.Delivered[j] {
				return fmt.Errorf("component %d flow %d delivered: CSR %v, oracle %v", c, i, got.Delivered[i], ref.Delivered[j])
			}
		}
		makespan = max(makespan, ref.Makespan)
	}
	if gotErr != nil {
		return fmt.Errorf("Run failed (%v), every component's oracle succeeded", gotErr)
	}
	if got.Makespan != makespan {
		return fmt.Errorf("makespan: CSR %v, oracle %v", got.Makespan, makespan)
	}
	// Zero-byte flows belong to no component and finish at t=0.
	for i, f := range flows {
		if f.Bytes == 0 && (got.FlowEnd[i] != 0 || got.Delivered[i] != 0) {
			return fmt.Errorf("zero-byte flow %d ended at %v having delivered %v", i, got.FlowEnd[i], got.Delivered[i])
		}
	}
	return nil
}

// TestSolverMatchesOracleProperty sweeps seeded random flow sets over
// one shared resource pool — varying flow counts, shared-resource
// overlap and zero-byte flows — asserting the CSR solver and the
// oracle agree bit for bit.
func TestSolverMatchesOracleProperty(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		flows, caps := genCase(seed)
		if err := diffAgainstOracle(flows, caps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSolverReuseAcrossCases reruns many cases through one Sim, since
// production callers hold a Sim across flow sets and stale scratch
// from a larger prior case must never leak into a later one.
func TestSolverReuseAcrossCases(t *testing.T) {
	checkReuse(t, genCase)
}

// checkReuse runs seeds 0–59 of gen through one reused Sim and
// asserts every result equals a fresh Sim's bit for bit.
func checkReuse(t *testing.T, gen func(seed uint64) ([]Flow[int], map[int]unit.BitRate)) {
	t.Helper()
	var sim Sim[int]
	for seed := uint64(0); seed < 60; seed++ {
		flows, caps := gen(seed)
		got, gotErr := sim.Run(flows, caps)
		var fresh Sim[int]
		want, wantErr := fresh.Run(flows, caps)
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
		if err := diffAgainstOracle(flows, caps); err != nil {
			t.Fatal(err)
		}
	})
}
