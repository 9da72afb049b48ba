package wafer

import "slices"

// This file implements deep cloning of the hardware model so a
// Monte-Carlo campaign can construct one pristine rack and duplicate
// it per trial instead of re-running the full constructor. A clone is
// indistinguishable from a freshly built rack that replayed the
// original's mutation history: same occupancy, same failures, same
// degradation — and entirely disjoint storage, so trials running on
// separate goroutines cannot alias each other's state.

// Clone returns a deep copy of the tile. Tiles hold only value state
// (the MZI switch stages included), so a struct copy suffices.
func (t *Tile) Clone() *Tile {
	c := *t
	return &c
}

// clone deep-copies a bus lane, including the per-bus occupancy
// intervals.
func (l *busLane) clone() *busLane {
	c := &busLane{capacity: l.capacity}
	if l.buses != nil {
		c.buses = make([][]Interval, len(l.buses))
		for i, ivs := range l.buses {
			if ivs != nil {
				c.buses[i] = append([]Interval(nil), ivs...)
			}
		}
	}
	return c
}

// Clone returns a deep copy of the wafer: tiles, bus-lane occupancy
// and fault-induced degradation are all duplicated, so mutating the
// clone never affects the original.
func (w *Wafer) Clone() *Wafer {
	c := &Wafer{cfg: w.cfg}
	c.tiles = make([]*Tile, len(w.tiles))
	for i, t := range w.tiles {
		c.tiles[i] = t.Clone()
	}
	c.hLanes = make([]*busLane, len(w.hLanes))
	for i, l := range w.hLanes {
		c.hLanes[i] = l.clone()
	}
	c.vLanes = make([]*busLane, len(w.vLanes))
	for i, l := range w.vLanes {
		c.vLanes[i] = l.clone()
	}
	c.loss = slices.Clone(w.loss)
	c.lossSet = slices.Clone(w.lossSet)
	c.degraded = w.degraded
	return c
}

// Clone returns a deep copy of the rack: every wafer and every
// inter-wafer fiber trunk is duplicated. Building a rack once and
// cloning it per trial is equivalent to rebuilding it, at a fraction
// of the cost.
func (r *Rack) Clone() *Rack {
	c := &Rack{cfg: r.cfg, topology: r.topology}
	c.wafers = make([]*Wafer, len(r.wafers))
	for i, w := range r.wafers {
		c.wafers[i] = w.Clone()
	}
	c.indexChips()
	c.trunks = make([]*fiberTrunk, len(r.trunks))
	for i, t := range r.trunks {
		nt := &fiberTrunk{used: make([][]bool, len(t.used))}
		for row, fibers := range t.used {
			nt.used[row] = append([]bool(nil), fibers...)
		}
		c.trunks[i] = nt
	}
	return c
}
