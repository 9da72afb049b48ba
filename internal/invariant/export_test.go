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

// MutatedReport is Mutated returning the violations its audit found,
// if it ran one.
func (d *Auditor) MutatedReport(op string) []Violation { return d.mutated(op) }

// FullPasses returns how many Sampled audits ran as full passes.
func (d *Auditor) FullPasses() int { return d.fullPasses }

// DeltaNext reports whether the next Sampled audit will try a delta
// audit, as far as the mutations seen so far decide.
func (d *Auditor) DeltaNext() bool { return d.idx.valid && d.deltas < fullPassEvery-1 }
