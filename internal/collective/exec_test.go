package collective

import (
	"fmt"
	"sort"
	"testing"
)

// TestExecuteStepReadsPreStepState: within a step every payload is
// read before any lands, so two chips swapping the same range (and a
// third reducing from a range the swap overwrites) see pre-step values.
func TestExecuteStepReadsPreStepState(t *testing.T) {
	s := &Schedule{N: 4, Steps: []Step{{Transfers: []Transfer{
		{From: 0, To: 1, Range: Range{0, 2}, DstLo: InPlace},
		{From: 1, To: 0, Range: Range{0, 2}, DstLo: InPlace},
		{From: 1, To: 2, Range: Range{0, 2}, DstLo: InPlace, Reduce: true},
	}}}}
	st := NewState([]int{0, 1, 2}, 4, func(c, i int) float64 { return float64(10*c + i) })
	if err := st.Execute(s); err != nil {
		t.Fatal(err)
	}
	want := map[int][]float64{
		0: {10, 11, 2, 3},
		1: {0, 1, 12, 13},
		2: {30, 32, 22, 23},
	}
	for c, w := range want {
		for i, v := range w {
			if st[c][i] != v {
				t.Fatalf("chip %d = %v, want %v", c, st[c], w)
			}
		}
	}
}

// CheckReduceScatter verifies each chip's owned range holds the
// reference reduction, that owned ranges are disjoint, and that they
// jointly cover [0, n).
func CheckReduceScatter(st State, owned map[int]Range, ref []float64) error {
	covered := make([]int, len(ref))
	chips := make([]int, 0, len(owned))
	for c := range owned {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	for _, c := range chips {
		r := owned[c]
		buf := st[c]
		for i := r.Lo; i < r.Hi; i++ {
			if !approxEqual(buf[i], ref[i]) {
				return fmt.Errorf("collective: chip %d owned element %d = %v, want %v", c, i, buf[i], ref[i])
			}
			covered[i]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			return fmt.Errorf("collective: element %d covered %d times, want exactly once", i, n)
		}
	}
	return nil
}

// Clone deep-copies the state.
func (st State) Clone() State {
	out := make(State, len(st))
	for c, buf := range st {
		b := make([]float64, len(buf))
		copy(b, buf)
		out[c] = b
	}
	return out
}

// Execute applies the schedule's steps in order. Within a step, all
// payloads are read from the pre-step state before any write is
// applied, so concurrent transfers behave as they would on real
// hardware where sends and receives of a step overlap in time.
//
// Execute is a convenience shim over a fresh Interp; callers running
// many schedules (the chaos trials) hold an Interp so the per-step
// payload staging is reused instead of reallocated.
func (st State) Execute(s *Schedule) error {
	var ip Interp
	return ip.Execute(st, s)
}

// Execute validates the schedule and applies its steps in order, like
// State.Execute, reusing the interpreter's scratch.
func (ip *Interp) Execute(st State, s *Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for si := range s.Steps {
		if err := ip.ExecuteStep(st, s, si); err != nil {
			return err
		}
	}
	return nil
}
