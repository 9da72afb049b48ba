package route

import (
	"fmt"
	"slices"
	"sort"

	"lightpath/internal/phy"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// This file serializes the allocator for the fleet checkpoint: the
// rack it manages, the circuit table, the occupancy mirrors, and the
// position of the stochastic loss stream. Restore replays into a
// freshly constructed allocator over a freshly constructed rack —
// geometry is rebuilt, state is replayed — and reproduces an
// allocator that behaves bit-for-bit like the one that was
// serialized: same circuit IDs, same pathfinding preferences, same
// future stitch-loss draws. Maps are written in sorted key order; the
// snapshot is part of a byte-identical-resume contract.

// stateFormatNote: the allocator encodes its state inline in the
// fleet snapshot payload rather than as its own envelope; versioning
// lives at the snapshot file level.

// EncodeState appends the allocator's full mutable state — rack
// included — to the encoder.
func (a *Allocator) EncodeState(e *snapshot.Encoder) {
	a.rack.EncodeState(e)

	// The loss stream's position. A nil-stream (deterministic) model
	// encodes ok=false and restores to one.
	s, ok := a.loss.RandState()
	e.Bool(ok)
	if ok {
		for _, w := range s {
			e.U64(w)
		}
	}

	e.Int(a.nextID)
	e.Len(len(a.circuits))
	for _, c := range a.circuits {
		encodeCircuit(e, c)
	}

	// Only rows with fibers in use: a zero count reads the same as an
	// absent key everywhere, so the encoding leaves it out and depends
	// only on what is held. RestoreState reads either form.
	keys := make([]fiberRowKey, 0, len(a.fibersUsed))
	for k, n := range a.fibersUsed {
		if n != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return fiberRowKeyLess(keys[i], keys[j]) })
	e.Len(len(keys))
	for _, k := range keys {
		e.Int(k.trunk)
		e.Int(k.row)
		e.Int(a.fibersUsed[k])
	}

	failed := make([]fiberRowKey, 0, len(a.failedRows))
	for k, v := range a.failedRows {
		if v {
			failed = append(failed, k)
		}
	}
	sort.Slice(failed, func(i, j int) bool { return fiberRowKeyLess(failed[i], failed[j]) })
	e.Len(len(failed))
	for _, k := range failed {
		e.Int(k.trunk)
		e.Int(k.row)
	}
}

// RestoreState replays state captured by EncodeState into this
// allocator, which must have been freshly constructed over a rack of
// the same configuration. The audit hook is left untouched — the
// attaching layer owns it.
func (a *Allocator) RestoreState(d *snapshot.Decoder) error {
	if err := a.rack.RestoreState(d); err != nil {
		return err
	}
	if d.Bool() {
		var s [4]uint64
		for i := range s {
			s[i] = d.U64()
		}
		a.loss.SetRandState(s)
	}

	a.nextID = d.Int()
	n := d.Len()
	a.circuits = make([]*Circuit, 0, n)
	for i := 0; i < n; i++ {
		c := decodeCircuit(d)
		if d.Err() != nil {
			return d.Err()
		}
		if c.ID < 0 || c.ID >= a.nextID {
			return fmt.Errorf("%w: circuit ID %d outside [0, %d)",
				snapshot.ErrCorruptSnapshot, c.ID, a.nextID)
		}
		at, dup := a.circuitIndex(c.ID)
		if dup {
			return fmt.Errorf("%w: duplicate circuit ID %d", snapshot.ErrCorruptSnapshot, c.ID)
		}
		a.circuits = slices.Insert(a.circuits, at, c)
	}

	n = d.Len()
	a.fibersUsed = make(map[fiberRowKey]int, n)
	for i := 0; i < n; i++ {
		k := fiberRowKey{trunk: d.Int(), row: d.Int()}
		a.fibersUsed[k] = d.Int()
	}

	n = d.Len()
	a.failedRows = nil
	if n > 0 {
		a.failedRows = make(map[fiberRowKey]bool, n)
	}
	for i := 0; i < n; i++ {
		a.failedRows[fiberRowKey{trunk: d.Int(), row: d.Int()}] = true
	}
	return d.Err()
}

// CircuitByID returns the established circuit with the given ID. The
// resume path uses it to re-link deserialized job state to the
// allocator's own circuit objects — Release compares pointers, so a
// copy would not do.
func (a *Allocator) CircuitByID(id int) (*Circuit, bool) {
	i, ok := a.circuitIndex(id)
	if !ok {
		return nil, false
	}
	return a.circuits[i], true
}

func fiberRowKeyLess(a, b fiberRowKey) bool {
	if a.trunk != b.trunk {
		return a.trunk < b.trunk
	}
	return a.row < b.row
}

func encodeCircuit(e *snapshot.Encoder, c *Circuit) {
	e.Int(c.ID)
	e.Int(c.A)
	e.Int(c.B)
	e.Int(c.Width)
	e.Len(len(c.Segments))
	for _, s := range c.Segments {
		e.Int(s.Wafer)
		e.Bool(s.Ref.Orient == wafer.Horizontal)
		e.Int(s.Ref.Lane)
		e.Int(s.Ref.Bus)
		e.Int(s.Ref.Span.Lo)
		e.Int(s.Ref.Span.Hi)
	}
	e.Len(len(c.Fibers))
	for _, f := range c.Fibers {
		e.Int(f.Trunk)
		e.Int(f.Row)
		e.Int(f.Fiber)
	}
	snapshot.Unit(e, c.EstablishedAt)
	snapshot.Unit(e, c.ReadyAt)
	encodeLink(e, c.Link)
}

func decodeCircuit(d *snapshot.Decoder) *Circuit {
	c := &Circuit{
		ID:    d.Int(),
		A:     d.Int(),
		B:     d.Int(),
		Width: d.Int(),
	}
	var segs []Segment
	var fibers []wafer.FiberRef
	n := d.Len()
	for i := 0; i < n; i++ {
		s := Segment{Wafer: d.Int()}
		s.Ref.Orient = wafer.Vertical
		if d.Bool() {
			s.Ref.Orient = wafer.Horizontal
		}
		s.Ref.Lane = d.Int()
		s.Ref.Bus = d.Int()
		s.Ref.Span.Lo = d.Int()
		s.Ref.Span.Hi = d.Int()
		segs = append(segs, s)
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		fibers = append(fibers, wafer.FiberRef{Trunk: d.Int(), Row: d.Int(), Fiber: d.Int()})
	}
	// Through setPath so a restored circuit is deep-equal to the live
	// one it mirrors (inline stores included).
	c.setPath(segs, fibers)
	c.EstablishedAt = snapshot.DecodeUnit[unit.Seconds](d)
	c.ReadyAt = snapshot.DecodeUnit[unit.Seconds](d)
	c.Link = decodeLink(d)
	return c
}

func encodeLink(e *snapshot.Encoder, l phy.LinkReport) {
	snapshot.Unit(e, l.TotalLossDB)
	snapshot.Unit(e, l.ReceivedPower)
	snapshot.Unit(e, l.MarginDB)
	e.Bool(l.Feasible)
	e.F64(l.BER)
	// The breakdown is written sparsely — (kind, value) pairs for the
	// nonzero kinds, in kind order — preserving the byte format the
	// map-based encoding produced (maps never held zero entries).
	n := 0
	for _, v := range l.ByKind {
		if v != 0 {
			n++
		}
	}
	e.Len(n)
	for k, v := range l.ByKind {
		if v != 0 {
			e.Int(k)
			snapshot.Unit(e, v)
		}
	}
}

func decodeLink(d *snapshot.Decoder) phy.LinkReport {
	l := phy.LinkReport{
		TotalLossDB:   snapshot.DecodeUnit[unit.Decibel](d),
		ReceivedPower: snapshot.DecodeUnit[unit.DBm](d),
		MarginDB:      snapshot.DecodeUnit[unit.Decibel](d),
		Feasible:      d.Bool(),
		BER:           d.F64(),
	}
	n := d.Len()
	for i := 0; i < n; i++ {
		k := d.Int()
		v := snapshot.DecodeUnit[unit.Decibel](d)
		if d.Err() == nil && k >= 0 && k < phy.NumLossKinds {
			l.ByKind[phy.LossKind(k)] = v
		}
	}
	return l
}
