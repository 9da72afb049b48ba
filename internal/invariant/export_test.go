package invariant

import (
	"fmt"
	"slices"

	"lightpath/internal/route"
)

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

// fullPasses counts, per auditor, the Sampled audits MutatedReport
// saw run as full passes. The auditor itself keeps no such count.
var fullPasses = map[*Auditor]int{}

// AttachCounting attaches like Attach, with MutatedReport as the
// audit hook, so FullPasses counts every full pass the auditor runs.
func AttachCounting(a *route.Allocator, mode Mode) *Auditor {
	d := Attach(a, mode)
	if mode != Off {
		a.SetAuditHook(func(op string) { d.MutatedReport(op) })
	}
	return d
}

// MutatedReport is the audit hook Attach installs, returning the
// violations its audit found, if it ran one. A sampled audit that
// leaves no delta audit since the last full pass was a full pass.
func (d *Auditor) MutatedReport(op string) []Violation {
	vs := d.mutated(op)
	if d.mode == Sampled && d.mutations%DefaultStride == 0 && d.deltas == 0 {
		fullPasses[d]++
	}
	return vs
}

// FullPasses returns how many Sampled audits, observed through
// MutatedReport, ran as full passes.
func (d *Auditor) FullPasses() int { return fullPasses[d] }

// DeltaNext reports whether the next Sampled audit will try a delta
// audit, as far as the mutations seen so far decide.
func (d *Auditor) DeltaNext() bool { return d.ctx.idx.valid && d.deltas < fullPassEvery-1 }

// Invariant is one registered check as the tests see it: its name,
// and a view that runs one audit pass on a fresh context and returns
// that invariant's details.
type Invariant struct {
	Name  string
	Check func(a *route.Allocator) []string
}

// Registry returns the registered invariants in audit order.
func Registry() []Invariant {
	out := make([]Invariant, numInvariants)
	for i, name := range registry {
		out[i] = Invariant{Name: name, Check: func(a *route.Allocator) []string {
			var ctx checkCtx
			ctx.audit(a)
			return ctx.out[i]
		}}
	}
	return out
}

// Mutations returns how many top-level mutations the auditor has
// observed.
func (d *Auditor) Mutations() int { return d.mutations }

// Violations returns a copy of the retained violations (at most
// maxRecorded; Count reports the true total).
func (d *Auditor) Violations() []Violation {
	return append([]Violation(nil), d.recorded...)
}

// IndexReleased returns how many released circuits' records the live
// index still holds.
func (d *Auditor) IndexReleased() int { return d.ctx.idx.released }

// IndexMatchesRebuild compares the auditor's live index with one
// rebuilt from the allocator's circuit table: the same circuits in the
// same order, each holding the same records, and the same held bus
// positions and fibers. An index holding no released records must
// equal the rebuild outright, offsets and arrays included.
func (d *Auditor) IndexMatchesRebuild() error {
	x := &d.ctx.idx
	var ctx checkCtx
	ctx.begin(d.alloc)
	fresh := &ctx.idx
	if !fresh.rebuild(ctx.circuits, ctx.geo) {
		return fmt.Errorf("the table does not rebuild")
	}
	if len(x.live) != len(fresh.live) {
		return fmt.Errorf("index holds %d circuits, table %d", len(x.live), len(fresh.live))
	}
	for k, e := range x.live {
		f := fresh.live[k]
		if e.c != f.c || e.id != f.id || e.a != f.a || e.b != f.b || e.width != f.width || e.spans != f.spans || e.fibers != f.fibers {
			return fmt.Errorf("entry %d: index %+v, rebuild %+v", k, e, f)
		}
		if !slices.Equal(x.spans[e.spanAt:e.spanAt+e.spans], fresh.spans[f.spanAt:f.spanAt+f.spans]) ||
			!slices.Equal(x.fibers[e.fibAt:e.fibAt+e.fibers], fresh.fibers[f.fibAt:f.fibAt+f.fibers]) {
			return fmt.Errorf("circuit %d: index records differ from the rebuild's", e.id)
		}
	}
	for lane := range fresh.busy {
		for bus := range max(len(x.busy[lane]), len(fresh.busy[lane])) {
			if got, want := wordAt(x.busy[lane], bus), wordAt(fresh.busy[lane], bus); got != want {
				return fmt.Errorf("lane slot %d bus %d: index holds %#x, rebuild %#x", lane, bus, got, want)
			}
		}
	}
	if !slices.Equal(x.fiberHeld, fresh.fiberHeld) {
		return fmt.Errorf("held fibers differ from the rebuild's")
	}
	if x.released == 0 && (!slices.Equal(x.live, fresh.live) || !slices.Equal(x.spans, fresh.spans) || !slices.Equal(x.fibers, fresh.fibers)) {
		return fmt.Errorf("compact index (%d spans, %d fibers) differs from the rebuild (%d, %d)",
			len(x.spans), len(x.fibers), len(fresh.spans), len(fresh.fibers))
	}
	return nil
}

// wordAt is words[i], or 0 past the end.
func wordAt(words []uint64, i int) uint64 {
	if i < len(words) {
		return words[i]
	}
	return 0
}
