package collective

import (
	"fmt"
	"testing"
	"testing/quick"
)

func a2aFill(i, j, el int) float64 {
	return float64(i*1000 + j*10 + el%7)
}

func TestAllToAllCorrect(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 16} {
		for _, n := range []int{p, 4 * p, 16 * p} {
			chips := ringOf(p)
			sched, err := AllToAll("a2a", chips, n, 4, false)
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			if sched.NumSteps() != p-1 {
				t.Fatalf("p=%d: steps = %d, want %d", p, sched.NumSteps(), p-1)
			}
			if err := sched.Validate(); err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			st := NewState(chips, 2*n, nil)
			full := Range{Lo: 0, Hi: n}
			for i, chip := range chips {
				for j := 0; j < p; j++ {
					block := full.Sub(j, p)
					for el := block.Lo; el < block.Hi; el++ {
						st[chip][el] = a2aFill(i, j, el-block.Lo)
					}
				}
			}
			if err := st.Execute(sched); err != nil {
				t.Fatalf("p=%d n=%d execute: %v", p, n, err)
			}
			if err := CheckAllToAll(st, chips, n, a2aFill); err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

func TestAllToAllValidation(t *testing.T) {
	if _, err := AllToAll("x", []int{1}, 8, 4, false); err == nil {
		t.Error("1-chip all-to-all accepted")
	}
	if _, err := AllToAll("x", []int{1, 2, 1}, 8, 4, false); err == nil {
		t.Error("duplicate chips accepted")
	}
	if _, err := AllToAll("x", []int{1, 2, 3}, 8, 4, false); err == nil {
		t.Error("non-divisible buffer accepted")
	}
}

func TestAllToAllReconfigMarks(t *testing.T) {
	chips := ringOf(4)
	marked, err := AllToAll("m", chips, 64, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// Every step pairs each chip with a new partner: reprogram each.
	if marked.Reconfigs() != 3 {
		t.Fatalf("reconfigs = %d, want 3", marked.Reconfigs())
	}
	plain, _ := AllToAll("p", chips, 64, 4, false)
	if plain.Reconfigs() != 0 {
		t.Fatal("unmarked schedule has reconfigs")
	}
}

func TestAllToAllEachChipSendsOncePerStep(t *testing.T) {
	chips := ringOf(8)
	sched, err := AllToAll("s", chips, 800, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for si, step := range sched.Steps {
		from := map[int]int{}
		to := map[int]int{}
		for _, tr := range step.Transfers {
			from[tr.From]++
			to[tr.To]++
		}
		for _, c := range chips {
			if from[c] != 1 || to[c] != 1 {
				t.Fatalf("step %d: chip %d sends %d, receives %d", si, c, from[c], to[c])
			}
		}
	}
}

// Property: the exchange conserves data — the multiset of received
// off-diagonal blocks equals the multiset of sent off-diagonal
// blocks, for arbitrary inputs and geometries.
func TestAllToAllConservation(t *testing.T) {
	f := func(pRaw, nRaw uint8, seed uint64) bool {
		p := int(pRaw%6) + 2
		n := (int(nRaw%16) + 1) * p
		chips := ringOf(p)
		sched, err := AllToAll("t", chips, n, 4, false)
		if err != nil {
			return false
		}
		st := NewState(chips, 2*n, nil)
		fill := fillRandom(seed)
		var sentSum float64
		full := Range{Lo: 0, Hi: n}
		for i, chip := range chips {
			for j := 0; j < p; j++ {
				block := full.Sub(j, p)
				for el := block.Lo; el < block.Hi; el++ {
					v := fill(chip, el)
					st[chip][el] = v
					if j != i {
						sentSum += v
					}
				}
			}
		}
		if err := st.Execute(sched); err != nil {
			return false
		}
		var recvSum float64
		for j, chip := range chips {
			for i := 0; i < p; i++ {
				if i == j {
					continue
				}
				block := full.Sub(i, p)
				for el := block.Lo; el < block.Hi; el++ {
					recvSum += st[chip][n+el]
				}
			}
		}
		return approxEqual(sentSum, recvSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDstRange(t *testing.T) {
	tr := Transfer{Range: Range{Lo: 8, Hi: 12}, DstLo: InPlace}
	if tr.DstRange() != (Range{Lo: 8, Hi: 12}) {
		t.Fatalf("in-place dst = %v", tr.DstRange())
	}
	tr.DstLo = 0
	if tr.DstRange() != (Range{Lo: 0, Hi: 4}) {
		t.Fatalf("offset-0 dst = %v", tr.DstRange())
	}
	tr.DstLo = 20
	if tr.DstRange() != (Range{Lo: 20, Hi: 24}) {
		t.Fatalf("offset-20 dst = %v", tr.DstRange())
	}
}

func TestValidateRejectsBadDstRange(t *testing.T) {
	s := &Schedule{N: 8, ElemBytes: 4, Steps: []Step{
		{Transfers: []Transfer{{From: 0, To: 1, Range: Range{Lo: 0, Hi: 4}, DstLo: 6}}},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("destination past N accepted")
	}
}

// CheckAllToAll verifies the post-state of an AllToAll executed from
// a state where chip chips[i]'s send half had block j filled by
// fill(i, j, element): afterwards chip chips[j]'s recv half must hold
// fill(i, j, element) in block i for every i != j, and every send
// half must be untouched.
func CheckAllToAll(st State, chips []int, n int, fill func(i, j, el int) float64) error {
	p := len(chips)
	send := Range{Lo: 0, Hi: n}
	for j, chip := range chips {
		buf := st[chip]
		if len(buf) != 2*n {
			return fmt.Errorf("collective: chip %d buffer length %d, want %d", chip, len(buf), 2*n)
		}
		// Send half untouched.
		for jj := 0; jj < p; jj++ {
			block := send.Sub(jj, p)
			for el := block.Lo; el < block.Hi; el++ {
				if want := fill(j, jj, el-block.Lo); !approxEqual(buf[el], want) {
					return fmt.Errorf("collective: chip %d send block %d mutated: element %d = %v, want %v",
						chip, jj, el-block.Lo, buf[el], want)
				}
			}
		}
		// Recv half holds block i from chip i, for i != j.
		for i := 0; i < p; i++ {
			if i == j {
				continue
			}
			block := send.Sub(i, p)
			for el := block.Lo; el < block.Hi; el++ {
				got := buf[n+el]
				if want := fill(i, j, el-block.Lo); !approxEqual(got, want) {
					return fmt.Errorf("collective: chip %d recv block %d element %d = %v, want %v",
						chip, i, el-block.Lo, got, want)
				}
			}
		}
	}
	return nil
}
