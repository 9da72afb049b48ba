package wafer

import (
	"fmt"
)

// This file is the hardware half of the failure lifecycle: per-
// component health state and the fault-application entry points the
// chaos engine's faults map onto. The wafer layer only records what is
// broken. Outside tests, internal/route's Allocator.ApplyFault and
// Allocator.Repair are the only callers of the fail and repair entry
// points, and they also decide which circuits a fault invalidates.
// Re-routing around a fault and deciding when to repair belong to the
// recovery loops above route (internal/core, internal/fleet,
// internal/ctrl).

// SeveredSegmentDB is the extra insertion loss at which a degraded
// bus-lane segment is treated as severed: no budget can absorb it, so
// pathfinding prunes the segment outright instead of discovering the
// infeasibility circuit by circuit.
const SeveredSegmentDB = 20.0

// FailChip marks the tile's stacked accelerator chip as failed. The
// photonic substrate underneath keeps working — circuits may still
// pass through the tile's buses — but the chip can no longer terminate
// circuits or participate in collectives.
func (t *Tile) FailChip() { t.chipFailed = true }

// ChipHealthy reports whether the tile's chip is alive.
func (t *Tile) ChipHealthy() bool { return !t.chipFailed }

// FailLasers burns out n of the tile's wavelength lasers. Lasers
// already reserved by circuits count: the caller is expected to
// invalidate circuits whose width no longer fits. Failing more lasers
// than exist saturates at the total.
func (t *Tile) FailLasers(n int) {
	if n <= 0 {
		return
	}
	t.lasersFailed += n
	if t.lasersFailed > t.lasers {
		t.lasersFailed = t.lasers
	}
}

// RepairChip replaces the tile's failed accelerator chip with a
// working one; the tile can terminate circuits again. Repairing a
// healthy chip is a no-op.
func (t *Tile) RepairChip() { t.chipFailed = false }

// RepairLasers restores n burned-out lasers (a Tx/Rx block swap).
// Restoring more lasers than have failed saturates at zero failed.
func (t *Tile) RepairLasers(n int) {
	if n <= 0 {
		return
	}
	t.lasersFailed -= n
	if t.lasersFailed < 0 {
		t.lasersFailed = 0
	}
}

// RepairSwitch replaces stuck tile switch i; it keeps its programmed
// port and accepts Program again.
func (t *Tile) RepairSwitch(i int) error {
	if i < 0 || i >= SwitchesPerTile {
		return fmt.Errorf("wafer: switch %d out of range [0, %d)", i, SwitchesPerTile)
	}
	t.Switches[i].stuck = false
	return nil
}

// FailSwitch freezes tile switch i in its current state: established
// paths through it keep working, but Program returns an error until
// the hardware is replaced.
func (t *Tile) FailSwitch(i int) error {
	if i < 0 || i >= SwitchesPerTile {
		return fmt.Errorf("wafer: switch %d out of range [0, %d)", i, SwitchesPerTile)
	}
	t.Switches[i].stuck = true
	return nil
}

// SwitchHealthy reports whether tile switch i can still be
// reprogrammed.
func (t *Tile) SwitchHealthy(i int) bool {
	return i >= 0 && i < SwitchesPerTile && !t.Switches[i].stuck
}

// CutFiberRow marks a trunk row as cut (§5: a trunk-row fiber
// failure). Fibers already allocated there stay allocated: the caller
// tears down the circuits using them.
func (r *Rack) CutFiberRow(trunk, row int) error {
	t, err := r.trunk(trunk, row)
	if err != nil {
		return err
	}
	t.cut[row] = true
	return nil
}

// RepairFiberRow returns a cut trunk row to service. Repairing an
// uncut row is a no-op.
func (r *Rack) RepairFiberRow(trunk, row int) error {
	t, err := r.trunk(trunk, row)
	if err != nil {
		return err
	}
	t.cut[row] = false
	return nil
}

// FiberRowCut reports whether a trunk row is cut. An out-of-range row
// is not.
func (r *Rack) FiberRowCut(trunk, row int) bool {
	t, err := r.trunk(trunk, row)
	return err == nil && t.cut[row]
}

// The fault-induced extra loss lives in a dense per-wafer grid with
// one cell per (orientation, lane, position): the horizontal lanes
// first, then the vertical ones, each lane's positions contiguous. A
// span lookup is then a walk over a subslice rather than a map probe
// per position, and the grid's index order is the sorted (orient,
// lane, pos) order the checkpoint encoding writes. The grid is
// allocated on the first fault, so a healthy wafer costs nothing.

// laneCells locates a bus lane in the loss grid: the index of its
// position 0 and its position count. ok is false for a lane the wafer
// does not have.
func (w *Wafer) laneCells(o Orient, lane int) (base, n int, ok bool) {
	rows, cols := w.cfg.Rows, w.cfg.Cols
	switch {
	case o == Horizontal && lane >= 0 && lane < rows:
		return lane * cols, cols, true
	case o == Vertical && lane >= 0 && lane < cols:
		return rows*cols + lane*rows, rows, true
	}
	return 0, 0, false
}

// cell validates one tile position of a bus lane and returns its loss
// grid index.
func (w *Wafer) cell(o Orient, lane, pos int) (int, error) {
	if _, err := w.lane(o, lane); err != nil {
		return 0, err
	}
	base, limit, _ := w.laneCells(o, lane)
	if pos < 0 || pos >= limit {
		return 0, fmt.Errorf("wafer: %s lane %d position %d out of range [0, %d)", o, lane, pos, limit)
	}
	return base + pos, nil
}

// cellPos is the inverse of cell: the lane position of grid index i.
func (w *Wafer) cellPos(i int) (o Orient, lane, pos int) {
	rows, cols := w.cfg.Rows, w.cfg.Cols
	if i < rows*cols {
		return Horizontal, i / cols, i % cols
	}
	i -= rows * cols
	return Vertical, i / rows, i % rows
}

// markDegraded adds extraDB at grid cell i, allocating the grid on the
// first fault.
func (w *Wafer) markDegraded(i int, extraDB float64) {
	if w.loss == nil {
		cells := 2 * w.cfg.Tiles()
		w.loss = make([]float64, cells)
		w.lossSet = make([]bool, cells)
	}
	if !w.lossSet[i] {
		w.lossSet[i] = true
		w.degraded++
	}
	w.loss[i] += extraDB
}

// DegradeSegment adds extra insertion loss at one tile position of a
// bus lane (all buses of the lane crossing that position pay it — the
// defect model is a contaminated routing region, not a single
// waveguide). Losses accumulate across repeated faults.
func (w *Wafer) DegradeSegment(o Orient, lane, pos int, extraDB float64) error {
	i, err := w.cell(o, lane, pos)
	if err != nil {
		return err
	}
	if extraDB < 0 {
		return fmt.Errorf("wafer: negative degradation %g dB", extraDB)
	}
	w.markDegraded(i, extraDB)
	return nil
}

// RepairSegment clears all fault-induced extra loss at one tile
// position of a bus lane — the contaminated region is re-worked.
// Repairing an undegraded position is a no-op.
func (w *Wafer) RepairSegment(o Orient, lane, pos int) error {
	i, err := w.cell(o, lane, pos)
	if err != nil {
		return err
	}
	if w.loss != nil && w.lossSet[i] {
		w.lossSet[i] = false
		w.loss[i] = 0
		w.degraded--
	}
	return nil
}

// spanLoss returns the loss cells a span of the lane crosses, in
// position order. Positions outside the lane carry no loss and are
// clipped; an unknown lane, an empty span or a fault-free wafer yields
// nil.
func (w *Wafer) spanLoss(o Orient, lane int, span Interval) []float64 {
	base, n, ok := w.laneCells(o, lane)
	if !ok || w.loss == nil {
		return nil
	}
	lo, hi := max(span.Lo, 0), min(span.Hi, n-1)
	if lo > hi {
		return nil
	}
	return w.loss[base+lo : base+hi+1]
}

// SpanExtraLossDB sums the fault-induced extra loss a circuit crossing
// the span of the lane would pay.
func (w *Wafer) SpanExtraLossDB(o Orient, lane int, span Interval) float64 {
	total := 0.0
	for _, db := range w.spanLoss(o, lane, span) {
		total += db
	}
	return total
}

// SpanSevered reports whether any position of the span has degraded
// past SeveredSegmentDB and must be pruned from pathfinding.
func (w *Wafer) SpanSevered(o Orient, lane int, span Interval) bool {
	for _, db := range w.spanLoss(o, lane, span) {
		if db >= SeveredSegmentDB {
			return true
		}
	}
	return false
}
