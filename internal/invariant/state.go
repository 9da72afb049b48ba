package invariant

import (
	"fmt"

	"lightpath/internal/snapshot"
)

// This file serializes the auditor's counters and retained violations
// for the fleet checkpoint. A resumed soak must report the same
// Mutations/Audits/Count columns — and the same Err() text — as the
// uninterrupted run, so the whole observation record rides along.

// EncodeState appends the auditor's counters and retained violations
// to the encoder. The mode is configuration, not state — the
// resuming side reconstructs the auditor with the same Config.
func (d *Auditor) EncodeState(e *snapshot.Encoder) {
	e.Int(d.mutations)
	e.Int(d.audits)
	e.Int(d.count)
	e.Len(len(d.recorded))
	for _, v := range d.recorded {
		e.String(v.Invariant)
		e.String(v.Op)
		e.String(v.Detail)
	}
}

// RestoreState replays counters captured by EncodeState into a
// freshly attached auditor. The delta index is not part of the
// snapshot, so a restored Sampled auditor's first audit is a full pass.
//
// Owners restore the auditor right after its allocator, so RestoreState
// ends, in every mode, with one full registry pass over the allocator
// and rack just restored. A CRC-valid payload can still hold circuits
// whose segments or fibers the rack does not hold, and a later release
// would panic on them; when the restored record is clean, the first
// violation the pass finds refuses the snapshot. The pass leaves the
// counters, the record and the index's validity as restored.
func (d *Auditor) RestoreState(dec *snapshot.Decoder) error {
	d.mutations = dec.Int()
	d.audits = dec.Int()
	d.count = dec.Int()
	n := dec.Len()
	d.recorded = nil
	for i := 0; i < n; i++ {
		d.recorded = append(d.recorded, Violation{
			Invariant: dec.String(),
			Op:        dec.String(),
			Detail:    dec.String(),
		})
	}
	d.ctx.idx.valid, d.deltas = false, 0
	if err := dec.Err(); err != nil {
		return err
	}
	// The program never writes these; Err() prints recorded[0]
	// whenever count is positive, so a count the record cannot back
	// would make it panic.
	if d.mutations < 0 || d.audits < 0 || d.count < 0 {
		return fmt.Errorf("%w: negative auditor counter (mutations %d, audits %d, violations %d)",
			snapshot.ErrCorruptSnapshot, d.mutations, d.audits, d.count)
	}
	if d.count > 0 && len(d.recorded) == 0 {
		return fmt.Errorf("%w: violation count %d with empty record", snapshot.ErrCorruptSnapshot, d.count)
	}
	if len(d.recorded) > min(d.count, maxRecorded) {
		return fmt.Errorf("%w: %d violations recorded, more than count %d or the cap %d allow",
			snapshot.ErrCorruptSnapshot, len(d.recorded), d.count, maxRecorded)
	}
	if d.count > 0 {
		// A run that already saw violations may hold hardware state
		// that disagrees with its circuits; it resumes to report them.
		return nil
	}
	d.ctx.audit(d.alloc)
	d.ctx.idx.valid = false
	for i, name := range registry {
		if details := d.ctx.out[i]; len(details) > 0 {
			return fmt.Errorf("%w: restored state violates %s: %s",
				snapshot.ErrCorruptSnapshot, name, details[0])
		}
	}
	return nil
}
