package invariant

import "lightpath/internal/route"

// IndexVouches runs a full pass over a's current circuits and reports
// whether the live index proved them disjoint, with the pairs the
// reporter names on the same circuits; the reporter runs here whether
// or not the index vouched. The differential tests use it to hold the
// two to each other and to prove they exercise both outcomes.
func IndexVouches(a *route.Allocator) (vouched bool, pairs []string) {
	var ctx checkCtx
	ctx.audit(a)
	return ctx.idx.valid, ctx.sweepFibers(ctx.sweepSegments(nil))
}

// MutatedReport is the audit hook Attach installs, returning the
// violations its audit found, if it ran one.
func (d *Auditor) MutatedReport(op string) []Violation { return d.mutated(op) }

// FullPasses returns how many Sampled audits ran as full passes.
func (d *Auditor) FullPasses() int { return d.fullPasses }

// DeltaNext reports whether the next Sampled audit will try a delta
// audit, as far as the mutations seen so far decide.
func (d *Auditor) DeltaNext() bool { return d.ctx.idx.valid && d.deltas < fullPassEvery-1 }
