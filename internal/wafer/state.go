package wafer

import (
	"fmt"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// This file serializes the rack's mutable hardware state — occupancy,
// health, switch programming, fault-induced degradation — for the
// fleet checkpoint. Geometry is NOT serialized: a resume rebuilds the
// rack from its Config and then replays this state into it, so the
// snapshot stays small and the constructor remains the single source
// of structural truth. Every map is written in sorted key order; a
// snapshot is part of a byte-identical-resume contract, so nothing
// may depend on Go's map iteration order.

// EncodeState appends the rack's mutable state to the encoder.
func (r *Rack) EncodeState(e *snapshot.Encoder) {
	e.Len(len(r.wafers))
	for _, w := range r.wafers {
		w.encodeState(e)
	}
	e.Len(len(r.trunks))
	for _, t := range r.trunks {
		e.Len(len(t.used))
		for _, fibers := range t.used {
			e.Len(len(fibers))
			for _, used := range fibers {
				e.Bool(used)
			}
		}
	}
}

// RestoreState replays state captured by EncodeState into a freshly
// constructed rack of the same configuration. A geometry mismatch —
// the snapshot disagreeing with the rack about wafer, lane or trunk
// counts — is reported as corruption.
func (r *Rack) RestoreState(d *snapshot.Decoder) error {
	if n := d.Len(); n != len(r.wafers) {
		return fmt.Errorf("%w: snapshot has %d wafers, rack has %d",
			snapshot.ErrCorruptSnapshot, n, len(r.wafers))
	}
	for _, w := range r.wafers {
		if err := w.restoreState(d); err != nil {
			return err
		}
	}
	if n := d.Len(); n != len(r.trunks) {
		return fmt.Errorf("%w: snapshot has %d trunks, rack has %d",
			snapshot.ErrCorruptSnapshot, n, len(r.trunks))
	}
	for ti, t := range r.trunks {
		if n := d.Len(); n != len(t.used) {
			return fmt.Errorf("%w: trunk %d has %d rows, snapshot says %d",
				snapshot.ErrCorruptSnapshot, ti, len(t.used), n)
		}
		for row := range t.used {
			if n := d.Len(); n != len(t.used[row]) {
				return fmt.Errorf("%w: trunk %d row %d has %d fibers, snapshot says %d",
					snapshot.ErrCorruptSnapshot, ti, row, len(t.used[row]), n)
			}
			for f := range t.used[row] {
				t.used[row][f] = d.Bool()
			}
		}
	}
	return d.Err()
}

func (w *Wafer) encodeState(e *snapshot.Encoder) {
	e.Len(len(w.tiles))
	for _, t := range w.tiles {
		t.encodeState(e)
	}
	encodeLanes(e, w.hLanes)
	encodeLanes(e, w.vLanes)
	// Fault-induced degradation, in sorted (orient, lane, pos) order —
	// the loss grid's own index order.
	e.Len(w.degraded)
	for i, set := range w.lossSet {
		if set {
			o, lane, pos := w.cellPos(i)
			e.Bool(o == Horizontal)
			e.Int(lane)
			e.Int(pos)
			e.F64(w.loss[i])
		}
	}
}

func (w *Wafer) restoreState(d *snapshot.Decoder) error {
	if n := d.Len(); n != len(w.tiles) {
		return fmt.Errorf("%w: wafer has %d tiles, snapshot says %d",
			snapshot.ErrCorruptSnapshot, len(w.tiles), n)
	}
	for _, t := range w.tiles {
		t.restoreState(d)
	}
	if err := restoreLanes(d, w.hLanes); err != nil {
		return err
	}
	if err := restoreLanes(d, w.vLanes); err != nil {
		return err
	}
	w.loss, w.lossSet, w.degraded = nil, nil, 0
	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		o := Vertical
		if d.Bool() {
			o = Horizontal
		}
		lane, pos, db := d.Int(), d.Int(), d.F64()
		cell, err := w.cell(o, lane, pos)
		if err != nil {
			return fmt.Errorf("%w: degraded segment: %w", snapshot.ErrCorruptSnapshot, err)
		}
		// Marking allocates the grid on the first record; the value is
		// then stored outright.
		w.markDegraded(cell, 0)
		w.loss[cell] = db
	}
	return d.Err()
}

func (t *Tile) encodeState(e *snapshot.Encoder) {
	e.Int(t.lasersUsed)
	e.Int(t.lasersFailed)
	e.Int(t.portsUsed)
	e.Bool(t.chipFailed)
	for i := range t.Switches {
		s := &t.Switches[i]
		e.Int(s.port)
		snapshot.Unit(e, s.lastProgram)
		e.Bool(s.stuck)
		for j := range s.stage {
			phase, target, last := s.stage[j].PhaseState()
			e.F64(phase)
			e.F64(target)
			snapshot.Unit(e, last)
		}
	}
}

func (t *Tile) restoreState(d *snapshot.Decoder) {
	t.lasersUsed = d.Int()
	t.lasersFailed = d.Int()
	t.portsUsed = d.Int()
	t.chipFailed = d.Bool()
	for i := range t.Switches {
		s := &t.Switches[i]
		s.port = d.Int()
		s.lastProgram = snapshot.DecodeUnit[unit.Seconds](d)
		s.stuck = d.Bool()
		for j := range s.stage {
			phase := d.F64()
			target := d.F64()
			last := snapshot.DecodeUnit[unit.Seconds](d)
			s.stage[j].SetPhaseState(phase, target, last)
		}
	}
}

func encodeLanes(e *snapshot.Encoder, lanes []*busLane) {
	e.Len(len(lanes))
	for _, l := range lanes {
		e.Len(len(l.buses))
		for _, ivs := range l.buses {
			e.Len(len(ivs))
			for _, iv := range ivs {
				e.Int(iv.Lo)
				e.Int(iv.Hi)
			}
		}
	}
}

func restoreLanes(d *snapshot.Decoder, lanes []*busLane) error {
	if n := d.Len(); n != len(lanes) {
		return fmt.Errorf("%w: wafer has %d lanes, snapshot says %d",
			snapshot.ErrCorruptSnapshot, len(lanes), n)
	}
	for _, l := range lanes {
		touched := d.Len()
		if touched > l.capacity {
			return fmt.Errorf("%w: snapshot touches %d buses, lane capacity %d",
				snapshot.ErrCorruptSnapshot, touched, l.capacity)
		}
		l.buses = l.buses[:0]
		for b := 0; b < touched; b++ {
			count := d.Len()
			ivs := make([]Interval, 0, count)
			for i := 0; i < count; i++ {
				ivs = append(ivs, Interval{Lo: d.Int(), Hi: d.Int()})
			}
			l.buses = append(l.buses, ivs)
		}
	}
	return d.Err()
}
