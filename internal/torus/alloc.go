package torus

import (
	"fmt"
)

// Allocation is a set of tenant slices placed on one torus, with
// remaining chips free. It answers the questions behind the paper's
// Figure 5: which dimensions can each slice use without congestion,
// and what fraction of each chip's bandwidth is therefore utilized?
type Allocation struct {
	t      *Torus
	slices []*Slice
	owner  []int // per chip: slice index, or -1 when free
}

// FreeChip is the owner value of an unallocated chip.
const FreeChip = -1

// NewAllocation validates the slices (in bounds, mutually disjoint)
// and returns the allocation.
func NewAllocation(t *Torus, slices []*Slice) (*Allocation, error) {
	a := &Allocation{t: t, slices: slices, owner: make([]int, t.Size())}
	for i := range a.owner {
		a.owner[i] = FreeChip
	}
	for si, s := range slices {
		if err := s.Validate(t); err != nil {
			return nil, err
		}
		for _, chip := range s.Chips(t) {
			if prev := a.owner[chip]; prev != FreeChip {
				return nil, fmt.Errorf("torus: slices %q and %q overlap at chip %d (%v)",
					slices[prev].Name, s.Name, chip, t.Coord(chip))
			}
			a.owner[chip] = si
		}
	}
	return a, nil
}

// Torus returns the underlying torus.
func (a *Allocation) Torus() *Torus { return a.t }

// Slices returns the allocated slices.
func (a *Allocation) Slices() []*Slice { return a.slices }

// Owner returns the slice index owning chip i, or FreeChip.
func (a *Allocation) Owner(i int) int { return a.owner[i] }

// OwnerSlice returns the slice owning chip i, or nil when free.
func (a *Allocation) OwnerSlice(i int) *Slice {
	if o := a.owner[i]; o != FreeChip {
		return a.slices[o]
	}
	return nil
}

// FreeChips returns the indices of unallocated chips in ascending
// order.
func (a *Allocation) FreeChips() []int {
	var free []int
	for i, o := range a.owner {
		if o == FreeChip {
			free = append(free, i)
		}
	}
	return free
}

// LineExclusive reports whether every chip on the dimension-d line
// through chip i is owned by slice index si (or, when
// allowFreePassThrough is set, free). This is the paper's condition
// for a slice to run a dimension-d ring without congestion: a ring on
// a partial line must close through the remainder of the physical
// line, and "traffic not destined for a TPU must be forwarded,
// consuming its bandwidth" (§4.2) — so any other tenant's chip on the
// line makes the ring congesting.
func (a *Allocation) LineExclusive(i, d, si int, allowFreePassThrough bool) bool {
	// Walk the line by stride arithmetic rather than materializing it
	// with Line: this is the inner loop of UsableDims, which every
	// collective plan calls, and chip = base + v*stride visits the same
	// chips Line returns without allocating.
	stride, extent := a.t.strides[d], a.t.shape[d]
	base := i - ((i/stride)%extent)*stride
	for v := 0; v < extent; v++ {
		o := a.owner[base+v*stride]
		if o == si {
			continue
		}
		if o == FreeChip && allowFreePassThrough {
			continue
		}
		return false
	}
	return true
}

// UsableDims returns the dimensions along which the slice can execute
// collective rings without congestion on the electrical torus:
// dimensions of extent >= 2 where every line through the slice is
// exclusive to it. With allowFreePassThrough, lines completed only by
// free chips also count (at the cost of consuming the free chips'
// forwarding bandwidth).
//
// Extent-2 dimensions are a special case: their ring is the two
// directions of a single cable wholly inside the slice, but the
// paper's Figure 5c still counts Slice-1's Y dimension (extent 2,
// sharing its physical Y lines with Slice-2) as unusable — the slice
// torus abstraction requires the dimension line, not just the cable.
// We follow the paper.
func (a *Allocation) UsableDims(si int, allowFreePassThrough bool) []int {
	s := a.slices[si]
	var dims []int
	for d := 0; d < a.t.Dims(); d++ {
		if s.Shape[d] < 2 {
			continue
		}
		usable := true
		for _, chip := range s.Chips(a.t) {
			if !a.LineExclusive(chip, d, si, allowFreePassThrough) {
				usable = false
				break
			}
		}
		if usable {
			dims = append(dims, d)
		}
	}
	return dims
}

// Utilization computes the fraction of a chip's egress bandwidth the
// slice can use on the electrical torus (Figure 5c's electrical bars):
// the number of congestion-free ring dimensions over the torus's
// total dimensions, since a direct-connect chip statically dedicates
// 1/D of its bandwidth to each dimension.
func (a *Allocation) Utilization(si int) float64 {
	return float64(len(a.UsableDims(si, false))) / float64(a.t.Dims())
}

// OpticalUtilization is the same metric for a photonic interconnect
// (Figure 5c's optical bars): as long as the slice has at least one
// usable ring dimension, MZI switches redirect the idle dimensions'
// bandwidth onto the active rings, so the chip's full egress is used.
func (a *Allocation) OpticalUtilization(si int) float64 {
	if len(a.UsableDims(si, false)) == 0 {
		return 0
	}
	return 1
}

// LinkUse counts concurrent transfers per directed link — the paper's
// congestion measure ("multiple transfers occur simultaneously on the
// same link", §4.1).
type LinkUse map[Link]int

// Add records one use of each link.
func (u LinkUse) Add(links []Link) {
	for _, l := range links {
		u[l]++
	}
}
