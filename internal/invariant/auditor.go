package invariant

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// completed top-level mutation; it may also be invoked directly via
// Audit after mutations that bypass the allocator (hardware repairs).
// An Auditor is not safe for concurrent use — like the allocator it
// watches, it belongs to a single trial.
type Auditor struct {
	alloc     *route.Allocator
	mode      Mode
	stride    int
	mutations int
	audits    int
	count     int
	recorded  []Violation
	// ctx is the audit loop's reusable working storage; a clean pass
	// over a warm auditor allocates nothing.
	ctx checkCtx
	// idx is a Sampled auditor's index for delta audits (delta.go).
	// deltas counts the delta audits since the last sampled full pass;
	// fullPasses counts the sampled audits that ran as full passes.
	idx        liveIndex
	deltas     int
	fullPasses int
}

// Attach builds an auditor in the given mode and registers it as the
// allocator's audit hook (except in Off mode, which leaves the hook
// untouched so the hot path stays a nil check).
func Attach(a *route.Allocator, mode Mode) *Auditor {
	d := &Auditor{alloc: a, mode: mode, stride: DefaultStride}
	if mode != Off {
		a.SetAuditHook(d.Mutated)
	}
	return d
}

// Mutated notes one completed top-level mutation and, depending on
// the mode, runs the registry. It is the function Attach installs as
// the allocator's audit hook; callers that mutate hardware behind the
// allocator's back (repair crews) invoke it directly with their own
// operation name.
func (d *Auditor) Mutated(op string) { d.mutated(op) }

// mutated is Mutated returning the violations its audit found, if it
// ran one.
func (d *Auditor) mutated(op string) []Violation {
	d.mutations++
	switch d.mode {
	case Paranoid:
		return d.run(op)
	case Sampled:
		if !deltaOp(op) {
			d.idx.valid = false
		}
		if d.mutations%d.stride == 0 {
			return d.sample(op)
		}
	}
	return nil
}

// sample runs one Sampled audit. It is a delta audit when the index
// is valid and fewer than fullPassEvery-1 deltas have run since the
// last full pass; otherwise, or when the delta finds anything amiss,
// it is a full pass, which rebuilds the index when it comes out clean.
func (d *Auditor) sample(op string) []Violation {
	if d.idx.valid && d.deltas < fullPassEvery-1 && d.idx.delta(&d.ctx, d.alloc) {
		d.audits++
		d.deltas++
		return nil
	}
	d.deltas = 0
	d.fullPasses++
	vs := d.run(op)
	if len(vs) == 0 {
		d.idx.rebuild(&d.ctx, d.alloc)
	}
	return vs
}

// Audit runs the full registry immediately, regardless of mode, and
// returns the violations found by this pass.
func (d *Auditor) Audit(op string) []Violation { return d.run(op) }

// run is one full pass. A pass that finds violations leaves the delta
// index invalid, so the next sampled audit is a full pass too.
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
	d.idx.valid = false
	d.count += len(fresh)
	if room := maxRecorded - len(d.recorded); room > 0 {
		n := len(fresh)
		if n > room {
			n = room
		}
		d.recorded = append(d.recorded, fresh[:n]...)
	}
	recordGlobal(fresh)
	return fresh
}

// Count returns the total violations found over the auditor's life.
func (d *Auditor) Count() int { return d.count }

// Audits returns how many audits have run: every Sampled audit point,
// delta or full, every Paranoid mutation and every direct Audit.
func (d *Auditor) Audits() int { return d.audits }

// Mutations returns how many top-level mutations the auditor has
// observed.
func (d *Auditor) Mutations() int { return d.mutations }

// Violations returns a copy of the retained violations (at most
// maxRecorded; Count reports the true total).
func (d *Auditor) Violations() []Violation {
	return append([]Violation(nil), d.recorded...)
}

// Err returns nil when the auditor has seen no violation, and
// otherwise an error wrapping ErrViolated that names the first one.
func (d *Auditor) Err() error {
	if d.count == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d violation(s), first: %s", ErrViolated, d.count, d.recorded[0])
}

// defaultMode is the process-wide mode layers like core consult when
// building fabrics; tests flip it to Paranoid in TestMain.
var defaultMode atomic.Int32

// SetDefaultMode sets the process-wide default audit mode and returns
// the previous one.
func SetDefaultMode(m Mode) Mode {
	return Mode(defaultMode.Swap(int32(m)))
}

// DefaultMode returns the process-wide default audit mode (Off unless
// something raised it).
func DefaultMode() Mode { return Mode(defaultMode.Load()) }

// The global tally aggregates violations across every auditor in the
// process, so a test binary can assert "zero violations anywhere"
// after fanning trials across goroutines.
var (
	globalMu       sync.Mutex
	globalCount    int
	globalRecorded []Violation
)

func recordGlobal(vs []Violation) {
	globalMu.Lock()
	defer globalMu.Unlock()
	globalCount += len(vs)
	if room := maxRecorded - len(globalRecorded); room > 0 {
		n := len(vs)
		if n > room {
			n = room
		}
		globalRecorded = append(globalRecorded, vs[:n]...)
	}
}

// GlobalCount returns the process-wide violation total.
func GlobalCount() int {
	globalMu.Lock()
	defer globalMu.Unlock()
	return globalCount
}

// GlobalViolations returns a copy of the retained process-wide
// violations.
func GlobalViolations() []Violation {
	globalMu.Lock()
	defer globalMu.Unlock()
	return append([]Violation(nil), globalRecorded...)
}

// ResetGlobal clears the process-wide tally; tests that provoke
// violations on purpose call it before handing control back.
func ResetGlobal() {
	globalMu.Lock()
	defer globalMu.Unlock()
	globalCount = 0
	globalRecorded = nil
}
