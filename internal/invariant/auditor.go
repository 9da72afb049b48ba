package invariant

import (
	"fmt"

	"lightpath/internal/route"
)

// DefaultStride is how many mutations a Sampled auditor lets pass
// between audits.
const DefaultStride = 16

// maxRecorded bounds the violations an auditor retains verbatim; the
// count keeps climbing past it so a runaway defect cannot exhaust
// memory with repeated reports.
const maxRecorded = 64

// Auditor runs the invariant registry against one allocator. It is
// attached through the allocator's audit hook, so it observes every
// completed top-level mutation — and every fault and repair is one,
// since the allocator is the only way fault state enters or leaves
// the hardware. Audit runs the registry on demand. An Auditor is not
// safe for concurrent use — like the allocator it watches, it belongs
// to a single trial.
type Auditor struct {
	alloc     *route.Allocator
	mode      Mode
	mutations int
	audits    int
	count     int
	recorded  []Violation
	// ctx is the audit loop's reusable working storage, the live index
	// delta audits run against included; a clean pass over a warm
	// auditor allocates nothing. deltas counts the delta audits since
	// the last sampled full pass; fullPasses counts the sampled audits
	// that ran as full passes.
	ctx        checkCtx
	deltas     int
	fullPasses int
}

// Attach builds an auditor in the given mode and registers it as the
// allocator's audit hook. In Off mode it leaves the hook untouched, so
// the hot path stays a nil check and the auditor counts no mutations.
func Attach(a *route.Allocator, mode Mode) *Auditor {
	d := &Auditor{alloc: a, mode: mode}
	if mode != Off {
		a.SetAuditHook(func(op string) { d.mutated(op) })
	}
	return d
}

// mutated notes one completed top-level mutation and, depending on
// the mode, runs the registry, returning the violations its audit
// found, if it ran one. It is the allocator's audit hook.
func (d *Auditor) mutated(op string) []Violation {
	d.mutations++
	switch d.mode {
	case Paranoid:
		return d.run(op)
	case Sampled:
		if !deltaOp(op) {
			d.ctx.idx.valid = false
		}
		if d.mutations%DefaultStride == 0 {
			return d.sample(op)
		}
	}
	return nil
}

// sample runs one Sampled audit. It is a delta audit when the index
// is valid and fewer than fullPassEvery-1 deltas have run since the
// last full pass; otherwise, or when the delta finds anything amiss,
// it is a full pass, which leaves the index valid when it comes out
// clean.
func (d *Auditor) sample(op string) []Violation {
	if d.ctx.idx.valid && d.deltas < fullPassEvery-1 && d.ctx.delta(d.alloc) {
		d.audits++
		d.deltas++
		return nil
	}
	d.deltas = 0
	d.fullPasses++
	return d.run(op)
}

// Audit runs the full registry immediately, regardless of mode, and
// returns the violations found by this pass.
func (d *Auditor) Audit(op string) []Violation { return d.run(op) }

// run is one full pass, which rebuilds the live index. A pass that
// finds violations leaves the index invalid, so the next sampled audit
// is a full pass too.
func (d *Auditor) run(op string) []Violation {
	d.audits++
	var fresh []Violation
	d.ctx.audit(d.alloc)
	for i, inv := range registry {
		for _, detail := range d.ctx.out[i] {
			fresh = append(fresh, Violation{Invariant: inv.Name, Op: op, Detail: detail})
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	d.ctx.idx.valid = false
	d.count += len(fresh)
	if room := maxRecorded - len(d.recorded); room > 0 {
		d.recorded = append(d.recorded, fresh[:min(len(fresh), room)]...)
	}
	return fresh
}

// Count returns the total violations found over the auditor's life.
func (d *Auditor) Count() int { return d.count }

// Audits returns how many audits have run: every Sampled audit point,
// delta or full, every Paranoid mutation and every direct Audit.
func (d *Auditor) Audits() int { return d.audits }

// Err returns nil when the auditor has seen no violation, and
// otherwise an error wrapping ErrViolated that names the first one.
func (d *Auditor) Err() error {
	if d.count == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d violation(s), first: %s", ErrViolated, d.count, d.recorded[0])
}
