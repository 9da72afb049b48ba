package alloc

import (
	"fmt"

	"lightpath/internal/torus"
)

// This file reconstructs the paper's figure scenarios. Figure
// geometry in the paper is schematic; these layouts are equivalent
// reconstructions that exhibit exactly the phenomena the paper
// describes (see each function's comment and DESIGN.md's
// per-experiment index).

// Fig5b builds the Figure 5b rack: a fully allocated 4x4x4 cube
// holding Slice-4 (4x4x2), Slice-3 (4x4x1), and Slice-1/Slice-2
// (4x2x1 each). Slice-1 and Slice-2 share their Y and Z dimension
// lines with other tenants (only X usable); Slice-3 and Slice-4 share
// Z (X and Y usable).
func Fig5b() (*torus.Torus, *torus.Allocation, error) {
	t := torus.New(torus.TPUv4RackShape)
	slices := []*torus.Slice{
		{Name: "Slice-1", Origin: torus.Coord{0, 0, 3}, Shape: torus.Shape{4, 2, 1}},
		{Name: "Slice-2", Origin: torus.Coord{0, 2, 3}, Shape: torus.Shape{4, 2, 1}},
		{Name: "Slice-3", Origin: torus.Coord{0, 0, 2}, Shape: torus.Shape{4, 4, 1}},
		{Name: "Slice-4", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 2}},
	}
	a, err := torus.NewAllocation(t, slices)
	if err != nil {
		return nil, nil, err
	}
	return t, a, nil
}

// Fig6aScenario is the single-rack failure setting of Figure 6a.
type Fig6aScenario struct {
	Torus *torus.Torus
	Alloc *torus.Allocation
	// Victim is the slice with the failed chip (Slice-3).
	Victim *torus.Slice
	// FailedChip is the failed TPU (red in the figure).
	FailedChip int
	// FreeChips are the replacement candidates (blue in the figure).
	FreeChips []int
}

// Fig6a builds the Figure 6a rack: Slice-4 fills z in {0,1}, victim
// Slice-3 is the 4x4 plane at z=2, Slice-1 holds half the z=3 plane
// and the other half is free. The failed chip is interior to Slice-3
// (the figure's TPU 7), so both its X and Y rings break, and — as in
// the paper — every electrical route from the broken-ring neighbors
// to a free chip either crosses another tenant's chip (on-chip
// forwarding congestion) or reuses a link carried by some slice's
// rings (link congestion).
func Fig6a() (*Fig6aScenario, error) {
	t := torus.New(torus.TPUv4RackShape)
	victim := &torus.Slice{Name: "Slice-3", Origin: torus.Coord{0, 0, 2}, Shape: torus.Shape{4, 4, 1}}
	slices := []*torus.Slice{
		{Name: "Slice-4", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 2}},
		victim,
		{Name: "Slice-1", Origin: torus.Coord{0, 0, 3}, Shape: torus.Shape{4, 2, 1}},
	}
	a, err := torus.NewAllocation(t, slices)
	if err != nil {
		return nil, err
	}
	sc := &Fig6aScenario{
		Torus:      t,
		Alloc:      a,
		Victim:     victim,
		FailedChip: t.Index(torus.Coord{1, 1, 2}),
		FreeChips:  a.FreeChips(),
	}
	if len(sc.FreeChips) != 8 {
		return nil, fmt.Errorf("alloc: Fig6a free chips = %d, want 8", len(sc.FreeChips))
	}
	return sc, nil
}

// Fig6bScenario is the cross-rack failure setting of Figure 6b.
type Fig6bScenario struct {
	RackTorus *torus.Torus
	// Allocs[0] is rack 1 (holding the victim), Allocs[1] is rack 2
	// (holding the only free chips).
	Allocs []*torus.Allocation
	// FailedChip is a local chip index in rack 1, inside the victim
	// Slice-2.
	FailedChip int
	// FreeChips are local chip indices in rack 2.
	FreeChips []int
	// SpliceDim is the dimension whose OCS can splice the racks (Z).
	SpliceDim int
}

// Fig6b builds the Figure 6b pair of racks. Rack 1 is fully
// allocated; the victim Slice-2 (4x2x1) sits on its top face so the
// only way out is the Z-dimension OCS. Rack 2 holds Slice-1 (2x4x4,
// running full 3-D bucket rings, including on the Z lines the paper's
// purple line refers to), two filler slices, and four free chips. As
// in the paper, every electrical path from the victim's broken-ring
// neighbors to a free chip crosses another tenant's chips or
// ring-carrying lines.
func Fig6b() (*Fig6bScenario, error) {
	t := torus.New(torus.TPUv4RackShape)
	victim := &torus.Slice{Name: "Slice-2", Origin: torus.Coord{0, 0, 3}, Shape: torus.Shape{4, 2, 1}}
	rack1Slices := []*torus.Slice{
		{Name: "r1-base", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 2}},
		{Name: "r1-mid", Origin: torus.Coord{0, 0, 2}, Shape: torus.Shape{4, 4, 1}},
		victim,
		{Name: "r1-top", Origin: torus.Coord{0, 2, 3}, Shape: torus.Shape{4, 2, 1}},
	}
	a1, err := torus.NewAllocation(t, rack1Slices)
	if err != nil {
		return nil, err
	}
	rack2Slices := []*torus.Slice{
		{Name: "Slice-1", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{2, 4, 4}},
		{Name: "r2-b", Origin: torus.Coord{2, 0, 0}, Shape: torus.Shape{2, 4, 2}},
		{Name: "r2-c", Origin: torus.Coord{2, 0, 2}, Shape: torus.Shape{2, 4, 1}},
		{Name: "r2-d", Origin: torus.Coord{2, 2, 3}, Shape: torus.Shape{2, 2, 1}},
	}
	a2, err := torus.NewAllocation(t, rack2Slices)
	if err != nil {
		return nil, err
	}
	sc := &Fig6bScenario{
		RackTorus:  t,
		Allocs:     []*torus.Allocation{a1, a2},
		FailedChip: t.Index(torus.Coord{1, 1, 3}),
		FreeChips:  a2.FreeChips(),
		SpliceDim:  2,
	}
	if len(sc.FreeChips) != 4 {
		return nil, fmt.Errorf("alloc: Fig6b free chips = %d, want 4", len(sc.FreeChips))
	}
	return sc, nil
}
