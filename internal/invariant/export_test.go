package invariant

import "lightpath/internal/route"

// PackedSweep reports whether the disjointness check packs the segment
// and the fiber sort keys of a's current circuits; false means that
// class takes the comparator fallback. The differential tests use it to
// prove they exercise both paths.
func PackedSweep(a *route.Allocator) (segs, fibs bool) {
	var ctx checkCtx
	ctx.audit(a)
	return ctx.seg.fit(), ctx.fib.fit()
}
