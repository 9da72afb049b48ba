package fleet

import (
	"fmt"

	"lightpath/internal/evloop"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file is the soak's crash-tolerance layer. A checkpoint is one
// snapshot-envelope file capturing everything the event loop needs to
// continue: RNG stream positions, the allocator and hardware state,
// job/spare/repair-queue state, accumulated statistics and the loop
// cursors. Checkpoints land only on event boundaries, and the fault
// schedule is recomputed from the config on resume (queued and
// in-repair faults travel as indexes into it), so the file stays
// small and a resumed soak produces an Outcome byte-identical to the
// uninterrupted run — the property the crash-injection tests sweep
// over every boundary.

// checkpointVersion is the current checkpoint payload format. Version
// 2 dropped the allocator's route-plan cache section. Version 3 counts
// repairs as the auditor's mutations only when an audit hook observes
// them, as every other mutation is counted: an Off-mode soak's
// checkpointed mutation count is now zero. Version 4 moved the cut
// fiber rows from the allocator's section into the rack's and dropped
// the allocator's per-row fiber counts. Version 5 writes queued and
// in-repair faults as schedule indexes, the fault count once, and no
// busy-crew count or goodput quantile sketch. Version 6 drops each
// switch's program time and MZI phase state from the rack section and
// each circuit's ready time, which its establishment time implies,
// from the allocator's. Version 7 drops the sample count and running
// sums, which the time series holds, each job's requested width, which
// is the soak's fixed width, and the streaming sample reservoir; its
// config digest covers the degraded-segment loss bound and drops the
// settings that became constants. Version 8 drops each circuit's
// stored BER from the allocator's section; the received power it
// derives from is still there. Version 9 drops the degraded job state,
// renumbering the shed state from 2 to 1, and each sample's degraded
// job count. Version 10 drops each job's state word: a job is up
// exactly when it holds a circuit.
const checkpointVersion = 10

// checkpointEvery is the default checkpoint cadence in event
// boundaries.
const checkpointEvery = 1024

// CheckpointOptions configures periodic snapshotting of a soak.
type CheckpointOptions = evloop.Options

// RunCheckpointed executes the soak and returns its availability time
// series. The returned error is non-nil when the fault schedule cannot
// be applied or when the invariant auditor found violations (wrapping
// invariant.ErrViolated) — a clean soak on corrupted logic must not
// look like a clean soak on correct logic. With opts set it writes a
// checkpoint every opts.EveryEvents event boundaries. The write is
// atomic (temp file, fsync, rename) and rotates the previous good
// snapshot aside, so a crash mid-write can always fall back. Writes
// overlap the soak, but all have finished when RunCheckpointed
// returns, and a failed one fails the run.
func RunCheckpointed(cfg Config, opts CheckpointOptions) (*Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := buildSoak(cfg, opts)
	if err != nil {
		return nil, err
	}
	s.place()
	return s.run()
}

// Resume continues a soak from the checkpoint at opts.Path, written
// by an earlier RunCheckpointed with the same Config. A corrupted or
// torn primary snapshot falls back to the previous good one; because
// the soak is deterministic, resuming from an older boundary replays
// to the identical Outcome. Checkpointing continues under the same
// options.
func Resume(cfg Config, opts CheckpointOptions) (*Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d, err := evloop.Open(opts.Path, checkpointVersion)
	if err != nil {
		return nil, err
	}
	s, err := buildSoak(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := s.restoreState(d); err != nil {
		return nil, err
	}
	return s.run()
}

// configDigest encodes every Config field, each of which shapes the
// event stream. Resume compares digests byte-for-byte: a checkpoint is
// only continuable under the exact configuration that produced it.
func (s *soak) configDigest() []byte { return snapshot.Digest(s.cfg) }

// encodeState serializes the full soak state at an event boundary.
func (s *soak) encodeState(e *snapshot.Encoder) {
	e.String(string(s.configDigest()))
	e.U64(s.loop.Events())
	e.Int(s.out.Faults)
	snapshot.Unit(e, s.nextSample)
	for _, w := range s.mttr.State() {
		e.U64(w)
	}
	s.alloc.EncodeState(e)
	s.aud.EncodeState(e)

	e.Len(len(s.jobs))
	for _, j := range s.jobs {
		e.Int(j.a)
		e.Int(j.b)
		cid := -1
		if j.circuit != nil {
			cid = j.circuit.ID
		}
		e.Int(cid)
	}
	e.Len(len(s.spares))
	for _, chip := range s.spares {
		e.Int(chip)
	}
	e.Len(len(s.pending))
	for _, i := range s.pending {
		e.Int(i)
	}
	s.repairs.EncodeState(e, (*snapshot.Encoder).Int)

	e.Int(s.out.Repairs)
	e.Int(s.out.ShedEvents)
	e.Int(s.out.Readmissions)
	e.Int(s.out.Reroutes)
	e.Int(s.out.Splices)
	e.Int(s.out.MinSpares)
	e.Int(s.blastSum)
	e.Len(len(s.out.Samples))
	for _, row := range s.out.Samples {
		encodeSample(e, row)
	}
}

// restoreState replays a checkpoint payload into a freshly built soak
// skeleton, rejecting any state the soak could not have reached: a
// CRC-valid payload must never make the resumed soak panic.
func (s *soak) restoreState(d *snapshot.Decoder) error {
	if err := d.CheckDigest(s.configDigest()); err != nil {
		return err
	}
	s.loop.SetEvents(d.U64())
	s.out.Faults = d.Int()
	s.nextSample = snapshot.DecodeUnit[unit.Seconds](d)
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	s.mttr.SetState(st)
	if err := s.alloc.RestoreState(d); err != nil {
		return err
	}
	if err := s.aud.RestoreState(d); err != nil {
		return err
	}
	if d.Err() == nil && (s.out.Faults < 0 || s.out.Faults > len(s.faults)) {
		return fmt.Errorf("%w: fault cursor %d outside schedule of %d",
			snapshot.ErrCorruptSnapshot, s.out.Faults, len(s.faults))
	}

	if n := d.Len(); d.Err() == nil && n != s.cfg.Jobs {
		return fmt.Errorf("%w: checkpoint has %d jobs, config says %d",
			snapshot.ErrCorruptSnapshot, n, s.cfg.Jobs)
	}
	chips := s.rack.NumChips()
	for i := 0; i < s.cfg.Jobs && d.Err() == nil; i++ {
		j := &job{a: d.Int(), b: d.Int()}
		if j.a < 0 || j.a >= chips || j.b < 0 || j.b >= chips {
			return fmt.Errorf("%w: job %d endpoints (%d,%d) outside [0, %d)",
				snapshot.ErrCorruptSnapshot, i, j.a, j.b, chips)
		}
		if cid := d.Int(); cid >= 0 {
			c, ok := s.alloc.CircuitByID(cid)
			if !ok {
				return fmt.Errorf("%w: job %d references unknown circuit %d",
					snapshot.ErrCorruptSnapshot, i, cid)
			}
			if _, dup := s.jobOf[cid]; dup {
				return fmt.Errorf("%w: circuit %d owned by two jobs", snapshot.ErrCorruptSnapshot, cid)
			}
			// Re-link to the allocator's own object: Release compares
			// pointers, so a decoded copy would leak the circuit.
			j.circuit = c
			s.jobOf[cid] = j
		}
		s.jobs = append(s.jobs, j)
	}
	// Every live circuit belongs to a job: the soak establishes
	// circuits only for jobs, and a fault that tears one down unlinks
	// it from its job.
	if d.Err() == nil && len(s.jobOf) != s.alloc.NumCircuits() {
		return fmt.Errorf("%w: %d live circuits but jobs hold %d",
			snapshot.ErrCorruptSnapshot, s.alloc.NumCircuits(), len(s.jobOf))
	}
	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		chip := d.Int()
		if chip < 0 || chip >= chips || (i > 0 && chip <= s.spares[i-1]) {
			return fmt.Errorf("%w: spare %d is chip %d, not ascending in [0, %d)",
				snapshot.ErrCorruptSnapshot, i, chip, chips)
		}
		s.spares = append(s.spares, chip)
	}
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		fi, err := s.queuedFault(d)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, fi)
	}
	if err := s.repairs.RestoreState(d, s.queuedFault); err != nil {
		return err
	}
	if s.repairs.Len() > crews {
		return fmt.Errorf("%w: %d in-flight repairs but %d crews",
			snapshot.ErrCorruptSnapshot, s.repairs.Len(), crews)
	}

	s.out.Repairs = d.Int()
	s.out.ShedEvents = d.Int()
	s.out.Readmissions = d.Int()
	s.out.Reroutes = d.Int()
	s.out.Splices = d.Int()
	s.out.MinSpares = d.Int()
	s.blastSum = d.Int()
	n = d.Len()
	for i := 0; i < n; i++ {
		s.out.Samples = append(s.out.Samples, decodeSample(d))
	}
	return d.Finish()
}

// queuedFault reads the schedule index of one queued or in-repair
// fault. Only applied faults get queued, so the index must lie below
// the restored cursor.
func (s *soak) queuedFault(d *snapshot.Decoder) (int, error) {
	i := d.Int()
	if d.Err() == nil && (i < 0 || i >= s.out.Faults) {
		return i, fmt.Errorf("%w: queued fault %d outside the %d applied",
			snapshot.ErrCorruptSnapshot, i, s.out.Faults)
	}
	return i, nil
}

func encodeSample(e *snapshot.Encoder, row Sample) {
	snapshot.Unit(e, row.T)
	e.Int(row.Up)
	e.Int(row.Shed)
	e.F64(row.Goodput)
	e.Int(row.Faults)
	e.Int(row.Repairs)
	e.F64(row.MeanBlast)
	e.Int(row.Spares)
	e.Int(row.Violations)
}

func decodeSample(d *snapshot.Decoder) Sample {
	return Sample{
		T:          snapshot.DecodeUnit[unit.Seconds](d),
		Up:         d.Int(),
		Shed:       d.Int(),
		Goodput:    d.F64(),
		Faults:     d.Int(),
		Repairs:    d.Int(),
		MeanBlast:  d.F64(),
		Spares:     d.Int(),
		Violations: d.Int(),
	}
}
