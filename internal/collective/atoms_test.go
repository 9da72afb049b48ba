package collective

import (
	"fmt"
	"slices"
	"testing"

	"lightpath/internal/torus"
)

func TestAtomsRenumbersOntoCuts(t *testing.T) {
	s := &Schedule{Name: "t", N: 10, ElemBytes: 4, Steps: []Step{
		{Transfers: []Transfer{{From: 0, To: 1, Range: Range{2, 7}, DstLo: InPlace, Reduce: true}}},
		{Transfers: []Transfer{{From: 1, To: 0, Range: Range{0, 7}, DstLo: InPlace}}},
	}}
	a, err := s.Atoms()
	if err != nil {
		t.Fatal(err)
	}
	// Cuts {0, 2, 7, 10}: three atoms.
	if a.N != 3 || a.Steps[0].Transfers[0].Range != (Range{1, 2}) || a.Steps[1].Transfers[0].Range != (Range{0, 2}) {
		t.Fatalf("atoms: N = %d, ranges %v %v", a.N, a.Steps[0].Transfers[0].Range, a.Steps[1].Transfers[0].Range)
	}
	if s.N != 10 || s.Steps[0].Transfers[0].Range != (Range{2, 7}) {
		t.Fatal("Atoms mutated its receiver")
	}
	if !a.Steps[0].Transfers[0].Reduce || a.Steps[1].Transfers[0].Reduce {
		t.Fatal("atom copy changed a transfer's kind")
	}
}

func TestAtomsRejectsNotInPlaceAndInvalid(t *testing.T) {
	a2a, err := AllToAll("a2a", ringOf(4), 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a2a.Atoms(); err == nil {
		t.Error("AllToAll schedule (DstLo != InPlace) accepted")
	}
	bad := &Schedule{N: 8, Steps: []Step{{Transfers: []Transfer{{From: 0, To: 1, Range: Range{-1, 4}, DstLo: InPlace}}}}}
	if _, err := bad.Atoms(); err == nil {
		t.Error("out-of-range schedule accepted")
	}
}

// allReduceVerdict executes s against n-element random buffers and
// reports "invalid", "correct" or "wrong".
func allReduceVerdict(t *testing.T, s *Schedule, chips []int) string {
	t.Helper()
	if err := s.Validate(); err != nil {
		return "invalid"
	}
	st := NewState(chips, s.N, fillRandom(41))
	ref := ReduceAcross(st, chips, s.N)
	if err := st.Execute(s); err != nil {
		t.Fatalf("%s: execute: %v", s.Name, err)
	}
	if CheckAllReduce(st, chips, ref) != nil {
		return "wrong"
	}
	return "correct"
}

// atomVerdict is allReduceVerdict on s's atoms.
func atomVerdict(t *testing.T, s *Schedule, chips []int) string {
	t.Helper()
	a, err := s.Atoms()
	if err != nil {
		return "invalid"
	}
	return allReduceVerdict(t, a, chips)
}

// TestAtomsVerdictMatchesFullBuffer is the differential behind the
// chaos run's correctness check: on every AllReduce generator and on
// mutants of each, the verdict on one value per atom equals the
// verdict on all N elements.
func TestAtomsVerdictMatchesFullBuffer(t *testing.T) {
	tor2, s2 := slice3()
	tor1, s1 := slice1()
	cube := &torus.Slice{Name: "cube", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 4}}
	tor3 := torus.New(cube.Shape)
	type gen struct {
		name  string
		chips []int
		build func() (*Schedule, error)
	}
	gens := []gen{
		{"ring", ringOf(5), func() (*Schedule, error) { return RingAllReduce("ring", ringOf(5), 37, 4, nil) }},
		{"bucket-2d", s2.Chips(tor2), func() (*Schedule, error) {
			return BucketAllReduce("b2", tor2, s2, []int{0, 1}, 97, 4, BucketOptions{})
		}},
		{"bucket-3d", cube.Chips(tor3), func() (*Schedule, error) {
			return BucketAllReduce("b3", tor3, cube, []int{0, 1, 2}, 130, 4, BucketOptions{})
		}},
		{"simultaneous", s2.Chips(tor2), func() (*Schedule, error) {
			return SimultaneousBucketAllReduce("sim", tor2, s2, 101, 4, BucketOptions{})
		}},
		{"snake", s1.Chips(tor1), func() (*Schedule, error) {
			return SnakeRingAllReduce("snake", tor1, s1, 83, 4, BucketOptions{MarkReconfig: true})
		}},
	}
	// Each mutant rewrites transfer ti of step si, or reports false
	// when it does not apply there.
	mutants := []struct {
		name   string
		mutate func(s *Schedule, si, ti int) bool
	}{
		{"drop", func(s *Schedule, si, ti int) bool {
			s.Steps[si].Transfers = slices.Delete(s.Steps[si].Transfers, ti, ti+1)
			return true
		}},
		{"duplicate-reduce", func(s *Schedule, si, ti int) bool {
			tr := s.Steps[si].Transfers[ti]
			if !tr.Reduce {
				return false
			}
			s.Steps = slices.Insert(s.Steps, si+1, Step{Transfers: []Transfer{tr}})
			return true
		}},
		{"copy-to-reduce", func(s *Schedule, si, ti int) bool {
			tr := &s.Steps[si].Transfers[ti]
			if tr.Reduce {
				return false
			}
			tr.Reduce = true
			return true
		}},
		{"shift", func(s *Schedule, si, ti int) bool {
			r := &s.Steps[si].Transfers[ti].Range
			r.Lo++
			r.Hi++
			return true
		}},
	}
	wrong := map[string]int{}
	for _, g := range gens {
		sched, err := g.build()
		if err != nil {
			t.Fatal(err)
		}
		if full, atoms := allReduceVerdict(t, sched, g.chips), atomVerdict(t, sched, g.chips); full != "correct" || atoms != full {
			t.Fatalf("%s: full-buffer verdict %s, atom verdict %s; want both correct", g.name, full, atoms)
		}
		last := sched.NumSteps() - 1
		for _, si := range []int{0, last / 2, last} {
			nt := len(sched.Steps[si].Transfers)
			for _, ti := range []int{0, nt - 1} {
				for _, m := range mutants {
					mut := sched.Clone()
					if !m.mutate(mut, si, ti) {
						continue
					}
					where := fmt.Sprintf("%s/%s step %d transfer %d", g.name, m.name, si, ti)
					full, atoms := allReduceVerdict(t, mut, g.chips), atomVerdict(t, mut, g.chips)
					if full == "correct" {
						t.Errorf("%s: mutant still correct on the full buffer", where)
					}
					if full == "wrong" {
						wrong[m.name]++
					}
					if atoms != full {
						t.Errorf("%s: full-buffer verdict %s, atom verdict %s", where, full, atoms)
					}
				}
			}
		}
	}
	// Invalid mutants agree trivially; each kind must also be caught
	// by the check itself.
	for _, m := range mutants {
		if wrong[m.name] == 0 {
			t.Errorf("mutant %s never reached the check", m.name)
		}
	}
}
