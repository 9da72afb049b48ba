package invariant

import "lightpath/internal/route"

// PackedSweep reports whether the disjointness check packs the segment
// and the fiber sort keys of a's current circuits; false means that
// class takes the comparator fallback. The differential tests use it to
// prove they exercise both paths.
func PackedSweep(a *route.Allocator) (segs, fibs bool) {
	sl, fl := newSegLayout(), newFibLayout()
	for _, c := range a.Circuits() {
		for _, s := range c.Segments {
			sl.observe(c.ID, s)
		}
		for _, f := range c.Fibers {
			fl.observe(c.ID, f)
		}
	}
	return sl.fit(), fl.fit()
}
