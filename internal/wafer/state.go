package wafer

import (
	"fmt"

	"lightpath/internal/snapshot"
)

// This file serializes the rack's mutable hardware state — occupancy,
// health, switch programming, fault-induced degradation, cut fiber
// rows — for the fleet checkpoint. Geometry is NOT serialized: a
// resume rebuilds the rack from its Config and then replays this state
// into it, so the snapshot stays small and the constructor remains the
// single source of structural truth. Every map is written in sorted key order; a
// snapshot is part of a byte-identical-resume contract, so nothing
// may depend on Go's map iteration order.

// EncodeState appends the rack's mutable state to the encoder.
func (r *Rack) EncodeState(e *snapshot.Encoder) {
	e.Len(len(r.wafers))
	for i := range r.wafers {
		r.wafers[i].encodeState(e)
	}
	e.Len(len(r.trunks))
	for i := range r.trunks {
		t := &r.trunks[i]
		e.Len(len(t.used))
		for row, fibers := range t.used {
			e.Len(len(fibers))
			for _, used := range fibers {
				e.Bool(used)
			}
			e.Bool(t.cut[row])
		}
	}
}

// RestoreState replays state captured by EncodeState into a freshly
// constructed rack of the same configuration, in place: the rack's
// wafers, tiles and lanes keep their addresses. A geometry mismatch —
// the snapshot disagreeing with the rack about wafer, lane or trunk
// counts — is reported as corruption, and so is a bus interval a live
// lane could not hold (see restoreLanes).
func (r *Rack) RestoreState(d *snapshot.Decoder) error {
	if n := d.Len(); n != len(r.wafers) {
		return fmt.Errorf("%w: snapshot has %d wafers, rack has %d",
			snapshot.ErrCorruptSnapshot, n, len(r.wafers))
	}
	for i := range r.wafers {
		if err := r.wafers[i].restoreState(d); err != nil {
			return err
		}
	}
	if n := d.Len(); n != len(r.trunks) {
		return fmt.Errorf("%w: snapshot has %d trunks, rack has %d",
			snapshot.ErrCorruptSnapshot, n, len(r.trunks))
	}
	for ti := range r.trunks {
		t := &r.trunks[ti]
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
			t.cut[row] = d.Bool()
		}
	}
	return d.Err()
}

func (w *Wafer) encodeState(e *snapshot.Encoder) {
	e.Len(len(w.tiles))
	for i := range w.tiles {
		w.tiles[i].encodeState(e)
	}
	encodeLanes(e, w.hLanes)
	encodeLanes(e, w.vLanes)
	// Fault-induced degradation, in sorted (orient, lane, pos) order —
	// the loss grid's own index order.
	n := 0
	for _, set := range w.lossSet {
		if set {
			n++
		}
	}
	e.Len(n)
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
	for i := range w.tiles {
		w.tiles[i].restoreState(d)
	}
	if err := restoreLanes(d, w.hLanes, w.cfg.Cols); err != nil {
		return err
	}
	if err := restoreLanes(d, w.vLanes, w.cfg.Rows); err != nil {
		return err
	}
	w.loss, w.lossSet = nil, nil
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
		e.Bool(s.stuck)
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
		s.stuck = d.Bool()
	}
}

// encodeLanes writes each lane's buses up to its last occupied one.
// Empty buses past it — left by a release of the lane's highest bus —
// are indistinguishable from never-touched ones to first-fit and to
// every reader, so the encoding leaves them out and depends only on
// what the lane holds. restoreLanes reads either form.
func encodeLanes(e *snapshot.Encoder, lanes []busLane) {
	e.Len(len(lanes))
	for i := range lanes {
		l := &lanes[i]
		n := len(l.buses)
		for n > 0 && len(l.buses[n-1]) == 0 {
			n--
		}
		e.Len(n)
		for _, ivs := range l.buses[:n] {
			e.Len(len(ivs))
			for _, iv := range ivs {
				e.Int(iv.Lo)
				e.Int(iv.Hi)
			}
		}
	}
}

// restoreLanes reads the lanes encodeLanes wrote into lanes, whose
// tile positions run [0, positions). It refuses what AllocBus could
// never have left: more buses than the lane has, an inverted interval,
// one reaching off the lane, and two intervals on one bus that share a
// position.
func restoreLanes(d *snapshot.Decoder, lanes []busLane, positions int) error {
	if n := d.Len(); n != len(lanes) {
		return fmt.Errorf("%w: wafer has %d lanes, snapshot says %d",
			snapshot.ErrCorruptSnapshot, len(lanes), n)
	}
	for li := range lanes {
		l := &lanes[li]
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
				iv := Interval{Lo: d.Int(), Hi: d.Int()}
				if err := d.Err(); err != nil {
					return err
				}
				if iv.Lo < 0 || iv.Lo > iv.Hi || iv.Hi >= positions {
					return fmt.Errorf("%w: lane %d bus %d holds interval [%d,%d], not inside [0,%d]",
						snapshot.ErrCorruptSnapshot, li, b, iv.Lo, iv.Hi, positions-1)
				}
				if overlapsAny(ivs, iv) {
					return fmt.Errorf("%w: lane %d bus %d holds overlapping intervals at [%d,%d]",
						snapshot.ErrCorruptSnapshot, li, b, iv.Lo, iv.Hi)
				}
				ivs = append(ivs, iv)
			}
			l.buses = append(l.buses, ivs)
		}
	}
	return d.Err()
}
