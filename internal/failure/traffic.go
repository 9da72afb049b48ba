package failure

import (
	"fmt"

	"lightpath/internal/torus"
)

// This file derives the steady-state link traffic each tenant's
// collectives impose on the electrical torus — the "busy" links that
// repair paths must avoid. A dimension line carrying a ring is
// counted busy in both orientations: the bucket AllReduce's
// ReduceScatter and AllGather phases, run back-to-back and often
// counter-rotated, keep both directions of a ring's cables occupied.

// sliceTraffic describes what one slice runs.
type sliceTraffic struct {
	// rings are the ordered chip cycles the slice's collective uses
	// (local chip indices).
	rings [][]int
}

// trafficFor determines a slice's collective pattern on the
// electrical torus:
//
//   - If every active dimension (extent >= 2) is congestion-free for
//     the slice, it runs the multidimensional bucket algorithm: one
//     set of rings per dimension (the paper's Slice-3, Table 2).
//   - Otherwise it runs the single snake (Hamiltonian) ring covering
//     all chips — the only congestion-free pattern left to a slice
//     like Slice-1 that can only use one dimension (Table 1).
//   - Slices that can do neither (no usable dimension and no snake)
//     impose no ring traffic.
func trafficFor(t *torus.Torus, a *torus.Allocation, si int) sliceTraffic {
	s := a.Slices()[si]
	usable := a.UsableDims(si)
	active := 0
	for _, e := range s.Shape {
		if e >= 2 {
			active++
		}
	}
	if active > 0 && len(usable) == active {
		var tr sliceTraffic
		for _, d := range usable {
			rings, err := s.Rings(t, d)
			if err != nil {
				// UsableDims guaranteed realizability; a failure here
				// is a programming error.
				panic(fmt.Sprintf("failure: %q dim %d rings: %v", s.Name, d, err))
			}
			tr.rings = append(tr.rings, rings...)
		}
		return tr
	}
	if ring, err := s.SnakeRing(t); err == nil {
		return sliceTraffic{rings: [][]int{ring}}
	}
	var tr sliceTraffic
	for _, d := range usable {
		rings, err := s.Rings(t, d)
		if err == nil {
			tr.rings = append(tr.rings, rings...)
		}
	}
	return tr
}

// BusyLinks returns the global directed links carried by every
// slice's collective across all racks, both orientations per ring
// edge. Links incident to a failed chip are dead, not busy, and are
// excluded; the victim's broken rings contribute their intact
// segments (the repaired ring keeps using them).
func (f *Fabric) BusyLinks() torus.LinkUse {
	busy := torus.LinkUse{}
	for rack, a := range f.allocs {
		for si := range a.Slices() {
			tr := trafficFor(f.t, a, si)
			for _, ring := range tr.rings {
				for i := range ring {
					from := f.Global(rack, ring[i])
					to := f.Global(rack, ring[(i+1)%len(ring)])
					if f.failed[from] || f.failed[to] {
						continue
					}
					busy.Add([]torus.Link{{From: from, To: to}, {From: to, To: from}})
				}
			}
		}
	}
	return busy
}

// RepairEndpoint is one stitch the repair must make: traffic must
// flow From -> To through the replacement chip's circuits/paths.
type RepairEndpoint struct {
	// Pred and Succ are the failed chip's ring predecessor and
	// successor (global chips): the repair must carry Pred ->
	// replacement -> Succ.
	Pred, Succ int
}

// RepairEndpoints returns, for each of the victim slice's rings
// broken by the failed chip, the predecessor/successor pair the
// replacement must be spliced between. The victim is identified by
// its rack and local failed chip.
func (f *Fabric) RepairEndpoints(rack, failedLocal int) ([]RepairEndpoint, error) {
	a := f.allocs[rack]
	si := a.Owner(failedLocal)
	if si == torus.FreeChip {
		return nil, fmt.Errorf("failure: failed chip %d is not allocated", failedLocal)
	}
	tr := trafficFor(f.t, a, si)
	var eps []RepairEndpoint
	for _, ring := range tr.rings {
		for i, chip := range ring {
			if chip != failedLocal {
				continue
			}
			n := len(ring)
			eps = append(eps, RepairEndpoint{
				Pred: f.Global(rack, ring[(i-1+n)%n]),
				Succ: f.Global(rack, ring[(i+1)%n]),
			})
			break
		}
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("failure: chip %d carries no rings; nothing to repair", failedLocal)
	}
	return eps, nil
}
