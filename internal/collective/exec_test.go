package collective

import "testing"

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
