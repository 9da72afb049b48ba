package collective

import (
	"fmt"

	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// This file implements the multidimensional bucket algorithm for torus
// networks ([39] in the paper), the collective that TPUv4 slices
// execute (§4.1): a sequence of ring phases, one per torus dimension.
// ReduceScatter runs the dimensions in order, each phase subdividing
// every chip's owned buffer range by its ring position; AllGather
// unwinds the phases in reverse. AllReduce is the two concatenated.
//
// The paper's observation: because the phases are sequential, "only
// one ring is active at a given time", leaving the other dimensions'
// statically-provisioned bandwidth idle on an electrical torus —
// exactly what LIGHTPATH's bandwidth redirection recovers.

// ActiveDims returns the slice dimensions with extent >= 2, in
// ascending order: the dimensions over which the bucket algorithm
// actually runs rings.
func ActiveDims(s *torus.Slice) []int {
	var dims []int
	for d, e := range s.Shape {
		if e >= 2 {
			dims = append(dims, d)
		}
	}
	return dims
}

// phase records one dimension phase of a bucket ReduceScatter so the
// AllGather can unwind it.
type phase struct {
	rings   [][]int
	parents []Range // parent range of each ring at this phase
}

// BucketOptions tunes schedule generation.
type BucketOptions struct {
	// MarkReconfig marks the first step of every dimension phase as
	// requiring optical reconfiguration — the schedule as executed on
	// a photonic interconnect that redirects bandwidth per phase. The
	// cost model charges r per marked step (Tables 1-2: "+r").
	MarkReconfig bool
}

// BucketReduceScatter builds the multidimensional bucket ReduceScatter
// of an n-element buffer over the slice, running ring phases over
// dimOrder (extent-1 dimensions are skipped). It returns the schedule
// and each chip's finally-owned range.
func BucketReduceScatter(name string, t *torus.Torus, s *torus.Slice, dimOrder []int, n int, elemBytes unit.Bytes, opt BucketOptions) (*Schedule, map[int]Range, error) {
	sched, owned, _, err := bucketRS(name, t, s, dimOrder, Range{Lo: 0, Hi: n}, n, elemBytes, opt)
	return sched, owned, err
}

func bucketRS(name string, t *torus.Torus, s *torus.Slice, dimOrder []int, initial Range, n int, elemBytes unit.Bytes, opt BucketOptions) (*Schedule, map[int]Range, []phase, error) {
	if err := validateDimOrder(t, dimOrder); err != nil {
		return nil, nil, nil, err
	}
	dimOf := func(from, to int) int { return t.LinkDim(torus.Link{From: from, To: to}) }

	owned := make(map[int]Range, s.Size())
	for _, chip := range s.Chips(t) {
		owned[chip] = initial
	}

	sched := &Schedule{Name: name, N: n, ElemBytes: elemBytes}
	var phases []phase
	for _, d := range dimOrder {
		if s.Shape[d] < 2 {
			continue
		}
		rings, err := s.Rings(t, d)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("collective: %q dim %d: %w", name, d, err)
		}
		base := len(sched.Steps)
		var ph phase
		for _, ring := range rings {
			parent, err := commonOwned(owned, ring)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("collective: %q dim %d: %w", name, d, err)
			}
			sched.Steps = ringReduceScatterSteps(sched.Steps, ring, parent, dimOf, base)
			for i, chip := range ring {
				owned[chip] = parent.Sub((i+1)%len(ring), len(ring))
			}
			ph.rings = append(ph.rings, ring)
			ph.parents = append(ph.parents, parent)
		}
		if opt.MarkReconfig && len(sched.Steps) > base {
			sched.Steps[base].Reconfig = true
		}
		phases = append(phases, ph)
	}
	return sched, owned, phases, nil
}

// BucketAllReduce builds the full bucket AllReduce: D ReduceScatter
// phases followed by D AllGather phases in reverse dimension order
// (§4.1: "D REDUCESCATTER operations followed by D ALLGATHER
// operations").
func BucketAllReduce(name string, t *torus.Torus, s *torus.Slice, dimOrder []int, n int, elemBytes unit.Bytes, opt BucketOptions) (*Schedule, error) {
	sched, _, phases, err := bucketRS(name, t, s, dimOrder, Range{Lo: 0, Hi: n}, n, elemBytes, opt)
	if err != nil {
		return nil, err
	}
	appendAllGatherPhases(sched, t, phases, opt)
	return sched, nil
}

// appendAllGatherPhases unwinds recorded ReduceScatter phases in
// reverse order, appending the AllGather steps to the schedule.
func appendAllGatherPhases(sched *Schedule, t *torus.Torus, phases []phase, opt BucketOptions) {
	dimOf := func(from, to int) int { return t.LinkDim(torus.Link{From: from, To: to}) }
	for pi := len(phases) - 1; pi >= 0; pi-- {
		ph := phases[pi]
		base := len(sched.Steps)
		for ri, ring := range ph.rings {
			// After the RS phase, ring member i owned sub-chunk
			// (i+1) mod p of the parent: offset 1.
			sched.Steps = ringAllGatherSteps(sched.Steps, ring, ph.parents[ri], 1, dimOf, base)
		}
		if opt.MarkReconfig && len(sched.Steps) > base {
			sched.Steps[base].Reconfig = true
		}
	}
}

// commonOwned asserts all ring members own the same range (an
// invariant of the bucket algorithm) and returns it.
func commonOwned(owned map[int]Range, ring []int) (Range, error) {
	r := owned[ring[0]]
	for _, chip := range ring[1:] {
		if owned[chip] != r {
			return Range{}, fmt.Errorf("ring members own divergent ranges: %v vs %v", r, owned[chip])
		}
	}
	return r, nil
}

func validateDimOrder(t *torus.Torus, dimOrder []int) error {
	if len(dimOrder) == 0 {
		return fmt.Errorf("collective: empty dimension order")
	}
	seen := map[int]bool{}
	for _, d := range dimOrder {
		if d < 0 || d >= t.Dims() {
			return fmt.Errorf("collective: dimension %d out of range", d)
		}
		if seen[d] {
			return fmt.Errorf("collective: dimension %d repeated in order", d)
		}
		seen[d] = true
	}
	return nil
}

// SimultaneousBucketAllReduce builds the buffer-splitting variant the
// paper discusses in §4.1 ([41]): the buffer is divided into one part
// per active dimension, and each part runs a bucket AllReduce with a
// rotated dimension order (XYZ, YZX, ZXY, ...) so that every
// dimension carries traffic throughout the collective. The paper's
// point — which the cost model confirms — is that on an electrical
// torus this achieves the same beta cost as LIGHTPATH's bandwidth
// redirection does with a single bucket execution, but it cannot do
// better, and it multiplies the alpha cost.
func SimultaneousBucketAllReduce(name string, t *torus.Torus, s *torus.Slice, n int, elemBytes unit.Bytes, opt BucketOptions) (*Schedule, error) {
	dims := ActiveDims(s)
	if len(dims) == 0 {
		return nil, fmt.Errorf("collective: slice %q has no active dimensions", s.Name)
	}
	D := len(dims)
	full := Range{Lo: 0, Hi: n}
	merged := &Schedule{Name: name, N: n, ElemBytes: elemBytes}
	for k := 0; k < D; k++ {
		part := full.Sub(k, D)
		order := make([]int, D)
		for i := range order {
			order[i] = dims[(i+k)%D]
		}
		partName := fmt.Sprintf("%s/part%d", name, k)
		rs, _, phases, err := bucketRS(partName, t, s, order, part, n, elemBytes, opt)
		if err != nil {
			return nil, err
		}
		appendAllGatherPhases(rs, t, phases, opt)
		mergeSteps(merged, rs)
	}
	return merged, nil
}

// mergeSteps overlays src's steps onto dst index-by-index, modeling
// the parts running concurrently.
func mergeSteps(dst, src *Schedule) {
	for i, st := range src.Steps {
		for len(dst.Steps) <= i {
			dst.Steps = append(dst.Steps, Step{})
		}
		dst.Steps[i].Transfers = append(dst.Steps[i].Transfers, st.Transfers...)
		dst.Steps[i].Reconfig = dst.Steps[i].Reconfig || st.Reconfig
	}
}

// SnakeRingAllReduce builds the single-Hamiltonian-ring AllReduce that
// a sub-rack slice executes when the photonic interconnect redirects
// all of the chip's bandwidth onto one ring (§4.1, Figure 5c: "we
// program the MZI switches on Slice-1 to redirect all of their
// bandwidth along the ring in the X dimension and execute one
// instance of the algorithm"). On an electrical torus the same
// schedule exists but each hop is confined to one dimension's static
// bandwidth.
func SnakeRingAllReduce(name string, t *torus.Torus, s *torus.Slice, n int, elemBytes unit.Bytes, opt BucketOptions) (*Schedule, error) {
	ring, err := s.SnakeRing(t)
	if err != nil {
		return nil, err
	}
	dimOf := func(from, to int) int { return t.LinkDim(torus.Link{From: from, To: to}) }
	sched, err := RingAllReduce(name, ring, n, elemBytes, dimOf)
	if err != nil {
		return nil, err
	}
	if opt.MarkReconfig && len(sched.Steps) > 0 {
		// One circuit establishment before the ring starts; the ring
		// then runs to completion with no further switching.
		sched.Steps[0].Reconfig = true
	}
	return sched, nil
}

// SnakeRingReduceScatter is the ReduceScatter-only form (Table 1
// prices exactly this operation for Slice-1).
func SnakeRingReduceScatter(name string, t *torus.Torus, s *torus.Slice, n int, elemBytes unit.Bytes, opt BucketOptions) (*Schedule, map[int]Range, error) {
	ring, err := s.SnakeRing(t)
	if err != nil {
		return nil, nil, err
	}
	dimOf := func(from, to int) int { return t.LinkDim(torus.Link{From: from, To: to}) }
	sched, own, err := RingReduceScatter(name, ring, n, elemBytes, dimOf)
	if err != nil {
		return nil, nil, err
	}
	if opt.MarkReconfig && len(sched.Steps) > 0 {
		sched.Steps[0].Reconfig = true
	}
	owned := make(map[int]Range, len(ring))
	for i, chip := range ring {
		owned[chip] = own.Owned(i)
	}
	return sched, owned, nil
}
