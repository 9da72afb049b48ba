package netsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"lightpath/internal/unit"
)

func approx(a, b unit.Seconds, tol float64) bool {
	if b == 0 {
		return a == 0
	}
	return math.Abs(float64(a-b))/math.Abs(float64(b)) <= tol
}

func TestSingleFlowExactTime(t *testing.T) {
	flows := []Flow[string]{{Bytes: unit.GB, Via: []string{"l"}}}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	var sim Sim[string]
	res, err := sim.Run(flows, caps)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Makespan, 1, 1e-6) {
		t.Fatalf("makespan = %v, want 1s", res.Makespan)
	}
	if res.Delivered[0] != unit.GB {
		t.Fatalf("delivered = %v", res.Delivered[0])
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	// Two equal flows on one link: each gets half, both finish at 2s —
	// the paper's definition of congestion made quantitative.
	flows := []Flow[string]{
		{Bytes: unit.GB, Via: []string{"l"}},
		{Bytes: unit.GB, Via: []string{"l"}},
	}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	var sim Sim[string]
	res, err := sim.Run(flows, caps)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Makespan, 2, 1e-6) {
		t.Fatalf("makespan = %v, want 2s", res.Makespan)
	}
}

func TestUnequalFlowsFreeCapacityEarly(t *testing.T) {
	// 0.5GB and 1GB on one 1GB/s link: both run at 0.5 GB/s until the
	// small one finishes at t=1; the big one then gets the full link:
	// 0.5GB left at 1 GB/s -> finishes at t=1.5.
	flows := []Flow[string]{
		{Bytes: unit.GB / 2, Via: []string{"l"}},
		{Bytes: unit.GB, Via: []string{"l"}},
	}
	caps := map[string]unit.BitRate{"l": unit.GBps(1)}
	var sim Sim[string]
	res, err := sim.Run(flows, caps)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.FlowEnd[0], 1, 1e-6) {
		t.Fatalf("small flow end = %v, want 1s", res.FlowEnd[0])
	}
	if !approx(res.FlowEnd[1], 1.5, 1e-6) {
		t.Fatalf("big flow end = %v, want 1.5s", res.FlowEnd[1])
	}
}

func TestMaxMinFairness(t *testing.T) {
	// Classic 3-flow example: A uses link1, B uses link2, C uses both.
	// link1 = 1, link2 = 2 (GB/s). Progressive filling: link1 is the
	// bottleneck (0.5 each for A and C); B then gets the remainder of
	// link2 = 1.5.
	flows := []Flow[string]{
		{Bytes: unit.GB, Via: []string{"l1"}},
		{Bytes: unit.GB, Via: []string{"l2"}},
		{Bytes: unit.GB, Via: []string{"l1", "l2"}},
	}
	caps := map[string]unit.BitRate{"l1": unit.GBps(1), "l2": unit.GBps(2)}
	rates := fairRates(flows, caps, []float64{1e9, 1e9, 1e9})
	if !approxF(rates[0], 0.5e9) || !approxF(rates[2], 0.5e9) {
		t.Fatalf("l1 flows rates = %v, %v, want 0.5 GB/s", rates[0], rates[2])
	}
	if !approxF(rates[1], 1.5e9) {
		t.Fatalf("B rate = %v, want 1.5 GB/s", rates[1])
	}
}

func approxF(a, b float64) bool { return math.Abs(a-b)/b < 1e-9 }

func TestZeroByteFlowsCompleteImmediately(t *testing.T) {
	flows := []Flow[string]{{Bytes: 0, Via: nil}}
	var sim Sim[string]
	res, err := sim.Run(flows, map[string]unit.BitRate{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.FlowEnd[0] != 0 {
		t.Fatalf("zero flow: %+v", res)
	}
}

func TestRunErrors(t *testing.T) {
	caps := map[string]unit.BitRate{"l": unit.GBps(1), "dead": 0}
	var sim Sim[string]
	if _, err := sim.Run([]Flow[string]{{Bytes: 1, Via: nil}}, caps); !errors.Is(err, ErrStarvedFlow) {
		t.Errorf("no-resource flow: %v", err)
	}
	if _, err := sim.Run([]Flow[string]{{Bytes: 1, Via: []string{"dead"}}}, caps); !errors.Is(err, ErrStarvedFlow) {
		t.Errorf("zero-capacity flow: %v", err)
	}
	if _, err := sim.Run([]Flow[string]{{Bytes: 1, Via: []string{"missing"}}}, caps); err == nil {
		t.Error("unknown resource accepted")
	}
	if _, err := sim.Run([]Flow[string]{{Bytes: -1, Via: []string{"l"}}}, caps); err == nil {
		t.Error("negative size accepted")
	}
}

// Conservation invariant (DESIGN.md): bytes delivered per flow equal
// bytes requested, for arbitrary flow sets.
func TestConservationProperty(t *testing.T) {
	var sim Sim[string]
	f := func(sizes []uint16, linkChoices []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		links := []string{"a", "b", "c", "d"}
		caps := map[string]unit.BitRate{}
		for _, l := range links {
			caps[l] = unit.GBps(1)
		}
		var flows []Flow[string]
		for i, s := range sizes {
			choice := 0
			if i < len(linkChoices) {
				choice = int(linkChoices[i])
			}
			via := []string{links[choice%4]}
			if choice%3 == 0 {
				via = append(via, links[(choice+1)%4])
			}
			flows = append(flows, Flow[string]{Bytes: unit.Bytes(s), Via: via})
		}
		res, err := sim.Run(flows, caps)
		if err != nil {
			return false
		}
		for i := range flows {
			if res.Delivered[i] != flows[i].Bytes {
				return false
			}
			if res.FlowEnd[i] > res.Makespan {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Work-conservation lower bound: the makespan is at least the most
// loaded link's total bytes over its capacity.
func TestMakespanMeetsLinkLoadBound(t *testing.T) {
	var sim Sim[string]
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		var flows []Flow[string]
		var total unit.Bytes
		for _, s := range sizes {
			flows = append(flows, Flow[string]{Bytes: unit.Bytes(s) + 1, Via: []string{"l"}})
			total += unit.Bytes(s) + 1
		}
		caps := map[string]unit.BitRate{"l": unit.GBps(1)}
		res, err := sim.Run(flows, caps)
		if err != nil {
			return false
		}
		bound := caps["l"].TimeFor(total)
		return res.Makespan >= bound-1e-9 && res.Makespan <= bound+unit.Seconds(1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
