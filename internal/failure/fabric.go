// Package failure implements the paper's §4.2: what happens when an
// accelerator chip fails in a multi-tenant direct-connect deployment.
// It models the electrical repair problem (splice a free chip into the
// victim slice's broken rings without congesting anyone — Figures 6a
// and 6b show this is generally impossible), the optical repair
// (establish dedicated non-overlapping circuits to the replacement —
// Figure 7), and the blast-radius comparison between TPUv4's
// rack-granularity fault policy and LIGHTPATH's server-granularity
// one.
package failure

import (
	"fmt"

	"lightpath/internal/torus"
)

// Fabric is the multi-rack electrical fault-analysis graph: per-rack
// allocations, per-column OCS splices along one dimension, failed
// chips, and the link traffic imposed by every slice's collectives.
// Chips are global: rack*rackSize + local.
type Fabric struct {
	t      *torus.Torus
	allocs []*torus.Allocation
	// spliceDim is the dimension whose wrap-around faces go through
	// OCSes (Z for TPUv4).
	spliceDim int
	// splices maps a column (identified by its z=0 local chip and
	// rack) to the partner rack its +Z face is spliced to; unspliced
	// columns wrap onto their own rack.
	splices map[colKey]int
	failed  map[int]bool
}

type colKey struct {
	rack int
	col  int // local chip index at spliceDim coordinate 0
}

// NewFabric builds the analysis graph. All racks share one torus
// geometry; allocs[i] is rack i's tenant allocation.
func NewFabric(t *torus.Torus, allocs []*torus.Allocation, spliceDim int) (*Fabric, error) {
	if len(allocs) == 0 {
		return nil, fmt.Errorf("failure: no racks")
	}
	if spliceDim < 0 || spliceDim >= t.Dims() {
		return nil, fmt.Errorf("failure: splice dimension %d out of range", spliceDim)
	}
	for i, a := range allocs {
		if a.Torus().Size() != t.Size() {
			return nil, fmt.Errorf("failure: rack %d allocation on a different torus", i)
		}
	}
	return &Fabric{
		t:         t,
		allocs:    allocs,
		spliceDim: spliceDim,
		splices:   make(map[colKey]int),
		failed:    make(map[int]bool),
	}, nil
}

// Size returns total chips.
func (f *Fabric) Size() int { return len(f.allocs) * f.t.Size() }

// Global converts (rack, local chip) to a global chip.
func (f *Fabric) Global(rack, chip int) int { return rack*f.t.Size() + chip }

// Split converts a global chip to (rack, local chip).
func (f *Fabric) Split(g int) (rack, chip int) { return g / f.t.Size(), g % f.t.Size() }

// Fail marks a global chip as failed.
func (f *Fabric) Fail(g int) { f.failed[g] = true }

// Failed reports whether a global chip is failed.
func (f *Fabric) Failed(g int) bool { return f.failed[g] }

// columnOf returns a chip's column key.
func (f *Fabric) columnOf(rack, chip int) colKey {
	c := f.t.Coord(chip)
	c[f.spliceDim] = 0
	return colKey{rack: rack, col: f.t.Index(c)}
}

// SpliceColumn programs the OCSes so the column through local chip
// col (any chip on the column identifies it) forms a two-rack loop:
// rackA's +Z face chip connects to rackB's -Z face chip and vice
// versa. It fails if either column is already spliced, or if either
// column's self-wrap link currently carries ring traffic — splicing
// would break a tenant's live ring, which is exactly the congestion
// constraint of Figure 6b.
func (f *Fabric) SpliceColumn(rackA, rackB, col int, busy torus.LinkUse) error {
	if rackA == rackB {
		return fmt.Errorf("failure: cannot splice a rack to itself")
	}
	for _, rack := range [2]int{rackA, rackB} {
		key := f.columnOf(rack, col)
		if _, ok := f.splices[key]; ok {
			return fmt.Errorf("failure: rack %d column already spliced", rack)
		}
		if f.wrapLinkBusy(rack, col, busy) {
			return fmt.Errorf("failure: rack %d column wrap link carries ring traffic", rack)
		}
	}
	f.splices[f.columnOf(rackA, col)] = rackB
	f.splices[f.columnOf(rackB, col)] = rackA
	return nil
}

// wrapLinkBusy reports whether the column's self-wrap link (either
// orientation) is in the busy set.
func (f *Fabric) wrapLinkBusy(rack, col int, busy torus.LinkUse) bool {
	c := f.t.Coord(col)
	c[f.spliceDim] = f.t.Extent(f.spliceDim) - 1
	top := f.Global(rack, f.t.Index(c))
	c[f.spliceDim] = 0
	bottom := f.Global(rack, f.t.Index(c))
	if busy[torus.Link{From: top, To: bottom}] > 0 {
		return true
	}
	return busy[torus.Link{From: bottom, To: top}] > 0
}

// Neighbors returns the chips adjacent to g, honoring OCS splices on
// the splice dimension. Failed chips still appear (the pathfinder
// filters them; the topology does not change when a chip dies).
func (f *Fabric) Neighbors(g int) []int {
	rack, chip := f.Split(g)
	co := f.t.Coord(chip)
	var out []int
	for d := 0; d < f.t.Dims(); d++ {
		e := f.t.Extent(d)
		if e == 1 {
			continue
		}
		for _, dir := range [2]int{+1, -1} {
			v := co[d] + dir
			switch {
			case d == f.spliceDim && v >= e:
				out = append(out, f.spliceTarget(rack, chip, 0))
			case d == f.spliceDim && v < 0:
				out = append(out, f.spliceTarget(rack, chip, e-1))
			default:
				nc := co.Clone()
				nc[d] = v
				out = append(out, f.Global(rack, f.t.Index(nc)))
			}
			if e == 2 {
				break // +1 and -1 coincide
			}
		}
	}
	return out
}

// spliceTarget resolves the chip reached when crossing the splice
// dimension's face from (rack, chip), landing at coordinate land on
// the partner (or same) rack.
func (f *Fabric) spliceTarget(rack, chip, land int) int {
	targetRack := rack
	if partner, ok := f.splices[f.columnOf(rack, chip)]; ok {
		targetRack = partner
	}
	c := f.t.Coord(chip)
	c[f.spliceDim] = land
	return f.Global(targetRack, f.t.Index(c))
}

// Owner returns the slice owning a global chip (nil when free).
func (f *Fabric) Owner(g int) *torus.Slice {
	rack, chip := f.Split(g)
	return f.allocs[rack].OwnerSlice(chip)
}

// FreeChips returns all free, non-failed global chips.
func (f *Fabric) FreeChips() []int {
	var out []int
	for rack, a := range f.allocs {
		for _, chip := range a.FreeChips() {
			g := f.Global(rack, chip)
			if !f.failed[g] {
				out = append(out, g)
			}
		}
	}
	return out
}
