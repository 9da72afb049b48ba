package collective

import (
	"testing"
	"testing/quick"

	"lightpath/internal/unit"
)

func TestRangeBasics(t *testing.T) {
	r := Range{Lo: 4, Hi: 12}
	if r.Len() != 8 || r.Empty() {
		t.Fatalf("len/empty wrong for %v", r)
	}
	if (Range{Lo: 3, Hi: 3}).Empty() != true {
		t.Fatal("empty range not empty")
	}
	if r.String() != "[4,12)" {
		t.Fatalf("string = %q", r.String())
	}
}

func TestRangeSubPartitions(t *testing.T) {
	// Property: Sub(j, p) for j in [0, p) partitions the range exactly.
	f := func(lo uint8, length uint16, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		r := Range{Lo: int(lo), Hi: int(lo) + int(length%1000)}
		covered := 0
		prev := r.Lo
		for j := 0; j < p; j++ {
			s := r.Sub(j, p)
			if s.Lo != prev {
				return false
			}
			prev = s.Hi
			covered += s.Len()
		}
		return prev == r.Hi && covered == r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeSubNearEven(t *testing.T) {
	r := Range{Lo: 0, Hi: 10}
	sizes := []int{}
	for j := 0; j < 3; j++ {
		sizes = append(sizes, r.Sub(j, 3).Len())
	}
	// Near-even: sizes differ by at most 1 and sum to 10.
	min, max, sum := sizes[0], sizes[0], 0
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
		sum += s
	}
	if sum != 10 || max-min > 1 {
		t.Fatalf("sub sizes = %v", sizes)
	}
}

func TestRangeSubPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub out of range did not panic")
		}
	}()
	Range{Lo: 0, Hi: 10}.Sub(3, 3)
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{Lo: 0, Hi: 5}
	cases := []struct {
		b    Range
		want bool
	}{
		{Range{5, 10}, false},
		{Range{4, 10}, true},
		{Range{0, 5}, true},
		{Range{-3, 0}, false},
		{Range{2, 3}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestTransferBytes(t *testing.T) {
	tr := Transfer{Range: Range{Lo: 0, Hi: 100}}
	if got := tr.Bytes(4); got != 400 {
		t.Fatalf("bytes = %v, want 400", got)
	}
}

func TestScheduleAccessors(t *testing.T) {
	s := &Schedule{
		Name: "t", N: 8, ElemBytes: 4,
		Steps: []Step{
			{Transfers: []Transfer{{From: 3, To: 1, Range: Range{0, 4}}}, Reconfig: true},
			{Transfers: []Transfer{{From: 1, To: 2, Range: Range{4, 8}}}},
		},
	}
	chips := s.Chips()
	if len(chips) != 3 || chips[0] != 1 || chips[1] != 2 || chips[2] != 3 {
		t.Fatalf("chips = %v", chips)
	}
	if s.NumSteps() != 2 || s.Reconfigs() != 1 {
		t.Fatalf("steps = %d reconfigs = %d", s.NumSteps(), s.Reconfigs())
	}
	if got := s.TotalBytes(); got != 32 {
		t.Fatalf("total bytes = %v", got)
	}
	maxes := s.MaxBytesPerChipStep()
	if len(maxes) != 2 || maxes[0] != 16 || maxes[1] != 16 {
		t.Fatalf("maxes = %v", maxes)
	}
}

func TestScheduleValidate(t *testing.T) {
	good := &Schedule{N: 8, ElemBytes: 4, Steps: []Step{
		{Transfers: []Transfer{
			{From: 0, To: 1, Range: Range{0, 4}},
			{From: 1, To: 0, Range: Range{4, 8}},
		}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []*Schedule{
		{N: 8, Steps: []Step{{Transfers: []Transfer{{From: 1, To: 1, Range: Range{0, 4}}}}}},
		{N: 8, Steps: []Step{{Transfers: []Transfer{{From: 0, To: 1, Range: Range{0, 9}}}}}},
		{N: 8, Steps: []Step{{Transfers: []Transfer{{From: 0, To: 1, Range: Range{4, 4}}}}}},
		{N: 8, Steps: []Step{{Transfers: []Transfer{
			{From: 0, To: 2, Range: Range{0, 4}},
			{From: 1, To: 2, Range: Range{2, 6}},
		}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestConcat(t *testing.T) {
	a := &Schedule{Name: "a", N: 8, ElemBytes: 4, Steps: []Step{{}, {}}}
	b := &Schedule{Name: "b", N: 8, ElemBytes: 4, Steps: []Step{{}}}
	c, err := a.Concat("c", b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSteps() != 3 || c.Name != "c" {
		t.Fatalf("concat = %d steps, name %q", c.NumSteps(), c.Name)
	}
	mismatch := &Schedule{Name: "m", N: 9, ElemBytes: 4}
	if _, err := a.Concat("x", mismatch); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestMaxBytesPerChipStepAggregatesPerSender(t *testing.T) {
	// One chip sending two transfers in a step counts their sum.
	s := &Schedule{N: 8, ElemBytes: unit.Bytes(1), Steps: []Step{
		{Transfers: []Transfer{
			{From: 0, To: 1, Range: Range{0, 4}},
			{From: 0, To: 2, Range: Range{4, 8}},
			{From: 3, To: 4, Range: Range{0, 2}},
		}},
	}}
	maxes := s.MaxBytesPerChipStep()
	if maxes[0] != 8 {
		t.Fatalf("max = %v, want 8 (chip 0 sends 4+4)", maxes[0])
	}
}

// MaxBytesPerChipStep returns, for each step, the largest payload any
// single chip sends in that step — the quantity the alpha-beta model
// divides by per-chip bandwidth.
func (s *Schedule) MaxBytesPerChipStep() []unit.Bytes {
	out := make([]unit.Bytes, len(s.Steps))
	for i, st := range s.Steps {
		perChip := map[int]unit.Bytes{}
		for _, tr := range st.Transfers {
			perChip[tr.From] += tr.Bytes(s.ElemBytes)
		}
		for _, b := range perChip {
			if b > out[i] {
				out[i] = b
			}
		}
	}
	return out
}
