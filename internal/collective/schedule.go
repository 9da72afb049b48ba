// Package collective implements the collective-communication
// algorithms the paper builds on (§2, §4.1): ring ReduceScatter,
// AllGather and AllReduce, the multidimensional bucket algorithm used
// by TPU tori ([39] in the paper), and the simultaneous multi-sequence
// variant ([41]) that splits the buffer across dimension orders.
//
// Algorithms produce explicit Schedules — sequences of steps, each a
// set of concurrent transfers — that downstream packages consume: the
// cost model prices them analytically (Tables 1-2), the network
// simulator executes them against link capacities, and this package's
// own interpreter executes them against real buffers to prove the
// mathematics correct (a DESIGN.md invariant).
package collective

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"lightpath/internal/unit"
)

// Range is a half-open element interval [Lo, Hi) within the collective
// buffer.
type Range struct {
	Lo, Hi int
}

// Len returns the number of elements in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Empty reports whether the range holds no elements.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Sub returns the j-th of p near-even subranges of r. All callers
// slicing the same range with the same p obtain identical boundaries,
// which is what keeps distributed chunk ownership consistent.
func (r Range) Sub(j, p int) Range {
	if p <= 0 || j < 0 || j >= p {
		panic(fmt.Sprintf("collective: Sub(%d, %d) out of range", j, p))
	}
	n := r.Len()
	return Range{
		Lo: r.Lo + j*n/p,
		Hi: r.Lo + (j+1)*n/p,
	}
}

// Overlaps reports whether two ranges share any element.
func (r Range) Overlaps(o Range) bool {
	return r.Lo < o.Hi && o.Lo < r.Hi
}

// String formats the range as "[lo,hi)".
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Transfer is one point-to-point movement of a buffer range between
// chips within a step.
type Transfer struct {
	From, To int
	Range    Range
	// DstLo is the destination element offset the payload lands at.
	// Ring and bucket schedules write in place (destination range ==
	// Range); AllToAll does not: chip i's block for chip j lands at
	// chip j's block i. A zero value means offset 0, which for the
	// in-place generators coincides with their Range.Lo of 0 blocks
	// only; they set InPlace explicitly.
	DstLo int
	// Reduce indicates the payload is element-wise added into the
	// destination (ReduceScatter phase) rather than copied (AllGather
	// phase).
	Reduce bool
	// Dim is the torus dimension the transfer traverses, or -1 when
	// unknown/not applicable. The electrical cost model needs it to
	// charge the transfer against the right per-dimension link.
	Dim int
}

// InPlace is the DstLo sentinel meaning "the destination range equals
// the source Range".
const InPlace = -1

// DstRange returns the destination element range the payload writes.
func (tr Transfer) DstRange() Range {
	if tr.DstLo < 0 {
		return tr.Range
	}
	return Range{Lo: tr.DstLo, Hi: tr.DstLo + tr.Range.Len()}
}

// Bytes returns the transfer's payload size for the given element
// width.
func (tr Transfer) Bytes(elemBytes unit.Bytes) unit.Bytes {
	return unit.Bytes(tr.Range.Len()) * elemBytes
}

// Step is a set of transfers that proceed concurrently.
type Step struct {
	Transfers []Transfer
	// Reconfig marks that the optical interconnect must be
	// reprogrammed before this step begins (bandwidth redirected to a
	// new dimension); the cost model charges the reconfiguration
	// delay r once per marked step.
	Reconfig bool
}

// Schedule is an ordered sequence of steps implementing one collective
// operation over a fixed set of chips.
type Schedule struct {
	Name string
	// N is the collective buffer length in elements.
	N int
	// ElemBytes is the width of one element.
	ElemBytes unit.Bytes
	Steps     []Step
}

// Clone deep-copies the schedule. The failure experiments splice a
// replacement chip into a schedule in place, so a campaign that plans
// once and runs many fault trials hands each trial its own clone.
// The steps share one transfer array, each capped at its own length.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{Name: s.Name, N: s.N, ElemBytes: s.ElemBytes}
	out.Steps = make([]Step, len(s.Steps))
	trs := make([]Transfer, 0, s.numTransfers())
	for i, st := range s.Steps {
		lo := len(trs)
		trs = append(trs, st.Transfers...)
		out.Steps[i] = Step{Transfers: trs[lo:len(trs):len(trs)], Reconfig: st.Reconfig}
	}
	return out
}

// numTransfers counts the transfers across all steps.
func (s *Schedule) numTransfers() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st.Transfers)
	}
	return n
}

// Atoms returns a copy of a valid in-place schedule with every Range
// renumbered onto its atoms: the transfer boundaries cut [0, N) into
// intervals, each element of an interval sees exactly the same copies
// and reduces, so one element per atom decides an AllReduce check
// exactly as all N do. The copy's N is the number of atoms and its
// timing and byte figures are meaningless; keep s for those. Atoms
// errors if s is invalid or any transfer is not InPlace.
func (s *Schedule) Atoms() (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cuts := append(make([]int, 0, 2+2*s.numTransfers()), 0, s.N)
	for si, st := range s.Steps {
		for ti, tr := range st.Transfers {
			if tr.DstLo != InPlace {
				return nil, fmt.Errorf("collective: %q step %d transfer %d is not in place", s.Name, si, ti)
			}
			cuts = append(cuts, tr.Range.Lo, tr.Range.Hi)
		}
	}
	sort.Ints(cuts)
	cuts = slices.Compact(cuts)
	atom := func(x int) int {
		i, _ := slices.BinarySearch(cuts, x)
		return i
	}
	out := s.Clone()
	out.N = len(cuts) - 1
	for _, st := range out.Steps {
		for ti := range st.Transfers {
			r := &st.Transfers[ti].Range
			*r = Range{Lo: atom(r.Lo), Hi: atom(r.Hi)}
		}
	}
	return out, nil
}

// Chips returns the sorted set of chips that appear in the schedule.
func (s *Schedule) Chips() []int {
	set := map[int]bool{}
	for _, st := range s.Steps {
		for _, tr := range st.Transfers {
			set[tr.From] = true
			set[tr.To] = true
		}
	}
	chips := make([]int, 0, len(set))
	for c := range set {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	return chips
}

// NumSteps returns the number of steps.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// Reconfigs returns how many steps require optical reconfiguration.
func (s *Schedule) Reconfigs() int {
	n := 0
	for _, st := range s.Steps {
		if st.Reconfig {
			n++
		}
	}
	return n
}

// TotalBytes returns the sum of all transfer payloads.
func (s *Schedule) TotalBytes() unit.Bytes {
	var total unit.Bytes
	for _, st := range s.Steps {
		for _, tr := range st.Transfers {
			total += tr.Bytes(s.ElemBytes)
		}
	}
	return total
}

// Validate checks structural sanity: non-negative ranges inside
// [0, N), no self-transfers, and no two transfers in one step writing
// overlapping destination ranges on the same chip (which would make
// the step's outcome order-dependent).
func (s *Schedule) Validate() error {
	if s.N < 0 {
		return fmt.Errorf("collective: schedule %q has negative N", s.Name)
	}
	type write struct {
		chip int
		r    Range
	}
	// One overlap scratch for the whole schedule: validation runs once
	// per execution (and once more after a repair splice), so growing a
	// fresh slice per step dominated the validator's allocations.
	var writes []write
	for si, st := range s.Steps {
		writes = writes[:0]
		for ti, tr := range st.Transfers {
			if tr.From == tr.To {
				return fmt.Errorf("collective: %q step %d transfer %d is a self-transfer", s.Name, si, ti)
			}
			if tr.Range.Lo < 0 || tr.Range.Hi > s.N || tr.Range.Empty() {
				return fmt.Errorf("collective: %q step %d transfer %d has bad range %v", s.Name, si, ti, tr.Range)
			}
			dst := tr.DstRange()
			if dst.Lo < 0 || dst.Hi > s.N {
				return fmt.Errorf("collective: %q step %d transfer %d has bad destination range %v", s.Name, si, ti, dst)
			}
			for _, w := range writes {
				if w.chip == tr.To && w.r.Overlaps(dst) {
					return fmt.Errorf("collective: %q step %d has overlapping writes to chip %d (%v and %v)",
						s.Name, si, tr.To, w.r, dst)
				}
			}
			writes = append(writes, write{chip: tr.To, r: dst})
		}
	}
	return nil
}

// Concat appends the steps of others after s's steps, returning a new
// schedule (used to build AllReduce = ReduceScatter + AllGather). N
// and ElemBytes must match.
func (s *Schedule) Concat(name string, others ...*Schedule) (*Schedule, error) {
	out := &Schedule{Name: name, N: s.N, ElemBytes: s.ElemBytes}
	out.Steps = append(out.Steps, s.Steps...)
	for _, o := range others {
		if o.N != s.N || !unit.ApproxEqual(o.ElemBytes, s.ElemBytes) {
			return nil, errors.New("collective: concat of schedules with different buffer geometry")
		}
		out.Steps = append(out.Steps, o.Steps...)
	}
	return out, nil
}
