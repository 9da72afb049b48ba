package route

import (
	"errors"
	"fmt"
	"slices"

	"lightpath/internal/chaos"
	"lightpath/internal/phy"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// This file is the routing half of the failure lifecycle, and the only
// way fault state enters or leaves the hardware: ApplyFault maps the
// chaos engine's faults onto the hardware's health state, decides
// which established circuits a fault invalidates and tears those
// down; Repair undoes a fault. Callers re-establish torn circuits over
// surviving resources with Establish, at full width.

// ApplyFault applies one fault to the rack hardware and tears down
// every established circuit the fault invalidates, returning the
// invalidated circuits (already released) so the caller can
// re-establish them. Faults that break no circuit return nil.
//
// Invalidation rules per class:
//
//   - ChipFailure: every circuit terminating at the chip.
//   - LaserDeath: circuits at the chip, newest first, until the
//     tile's laser budget balances again.
//   - MZIStuck: none — a stuck switch freezes its current state, so
//     established paths keep working; only new programs fail.
//   - WaveguideLoss: circuits crossing the degraded position whose
//     optical budget no longer closes (or whose span is severed).
//   - FiberCut: every circuit using the cut trunk row (§5,
//     "dynamically reconfiguring the network in real-time, ensuring
//     continued operation despite faults").
func (a *Allocator) ApplyFault(f chaos.Fault) ([]*Circuit, error) {
	a.beginOp()
	defer a.endOp("apply-fault")
	if err := a.checkFault(f); err != nil {
		return nil, err
	}
	atChip := func(c *Circuit) bool { return c.A == f.Chip || c.B == f.Chip }
	switch f.Class {
	case chaos.ChipFailure:
		a.rack.TileOf(f.Chip).FailChip()
		return a.releaseAll(a.circuitsWhere(atChip)), nil

	case chaos.LaserDeath:
		tile := a.rack.TileOf(f.Chip)
		tile.FailLaser()
		// Over-commit: shed the newest circuits first until the tile's
		// remaining lasers cover the survivors.
		var shed []*Circuit
		at := a.circuitsWhere(atChip)
		for i := len(at) - 1; i >= 0 && tile.FreeLasers() < 0; i-- {
			a.Release(at[i])
			shed = append(shed, at[i])
		}
		return shed, nil

	case chaos.MZIStuck:
		return nil, a.rack.TileOf(f.Chip).FailSwitch(f.Switch)

	case chaos.WaveguideLoss:
		o := orientOf(f.Horizontal)
		if err := a.rack.Wafer(f.Wafer).DegradeSegment(o, f.Lane, f.Pos, f.ExtraLossDB); err != nil {
			return nil, err
		}
		crosses := func(s Segment) bool {
			return s.Wafer == f.Wafer && s.Ref.Orient == o && s.Ref.Lane == f.Lane &&
				s.Ref.Span.Lo <= f.Pos && f.Pos <= s.Ref.Span.Hi
		}
		return a.releaseAll(a.circuitsWhere(func(c *Circuit) bool {
			return slices.ContainsFunc(c.Segments, crosses) && !a.StillFeasible(c)
		})), nil

	default: // chaos.FiberCut: checkFault refuses every other class.
		if err := a.rack.CutFiberRow(f.Trunk, f.Row); err != nil {
			return nil, err
		}
		onRow := func(g wafer.FiberRef) bool { return g.Trunk == f.Trunk && g.Row == f.Row }
		return a.releaseAll(a.circuitsWhere(func(c *Circuit) bool {
			return slices.ContainsFunc(c.Fibers, onRow)
		})), nil
	}
}

// Repair undoes one fault ApplyFault applied: the chip is replaced, one
// laser restored, the switch replaced, the degraded position re-worked
// (all its extra loss cleared) or the cut row returned to service.
// Repairing healthy hardware is a no-op. Circuits ApplyFault tore down
// are not re-established here — that is the recovery loop's decision.
func (a *Allocator) Repair(f chaos.Fault) error {
	a.beginOp()
	defer a.endOp("repair")
	if err := a.checkFault(f); err != nil {
		return err
	}
	switch f.Class {
	case chaos.ChipFailure:
		a.rack.TileOf(f.Chip).RepairChip()
	case chaos.LaserDeath:
		a.rack.TileOf(f.Chip).RepairLaser()
	case chaos.MZIStuck:
		return a.rack.TileOf(f.Chip).RepairSwitch(f.Switch)
	case chaos.WaveguideLoss:
		return a.rack.Wafer(f.Wafer).RepairSegment(orientOf(f.Horizontal), f.Lane, f.Pos)
	case chaos.FiberCut:
		return a.rack.RepairFiberRow(f.Trunk, f.Row)
	}
	return nil
}

// checkFault validates a fault's class and the chip or wafer it names
// against the rack; the switch, lane, position, trunk and row are the
// hardware's to check.
func (a *Allocator) checkFault(f chaos.Fault) error {
	switch f.Class {
	case chaos.ChipFailure, chaos.LaserDeath, chaos.MZIStuck:
		if f.Chip < 0 || f.Chip >= a.rack.NumChips() {
			return fmt.Errorf("route: fault chip %d out of range [0, %d)", f.Chip, a.rack.NumChips())
		}
	case chaos.WaveguideLoss:
		if f.Wafer < 0 || f.Wafer >= a.rack.NumWafers() {
			return fmt.Errorf("route: fault wafer %d out of range [0, %d)", f.Wafer, a.rack.NumWafers())
		}
	case chaos.FiberCut:
	default:
		return fmt.Errorf("route: unknown fault class %d", int(f.Class))
	}
	return nil
}

// circuitsWhere returns the established circuits keep holds for, in
// ID order.
func (a *Allocator) circuitsWhere(keep func(*Circuit) bool) []*Circuit {
	var out []*Circuit
	for _, c := range a.circuits {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// rowUsable reports whether row is cut on no trunk of the path.
func (a *Allocator) rowUsable(row int, trunks trunkRange) bool {
	for tr := trunks.lo; tr < trunks.hi; tr++ {
		if a.rack.FiberRowCut(tr, row) {
			return false
		}
	}
	return true
}

// StillFeasible re-checks a circuit's optical budget against the
// current fault-induced degradation on its spans: severed spans fail
// outright, and accumulated extra loss must fit the remaining margin.
// The circuit's stored link report already charged the defect loss
// present at establish time (ByKind[LossDefect]); only degradation
// added since eats into the remaining margin. ApplyFault uses it to
// decide which circuits a waveguide fault invalidates, and the
// invariant auditor uses it to assert every surviving circuit's
// budget still closes. A segment naming a wafer off the rack, which
// only a corrupted circuit can hold, adds no loss.
func (a *Allocator) StillFeasible(c *Circuit) bool {
	extra := 0.0
	for _, s := range c.Segments {
		if s.Wafer < 0 || s.Wafer >= a.rack.NumWafers() {
			continue
		}
		w := a.rack.Wafer(s.Wafer)
		if w.SpanSevered(s.Ref.Orient, s.Ref.Lane, s.Ref.Span) {
			return false
		}
		extra += w.SpanExtraLossDB(s.Ref.Orient, s.Ref.Lane, s.Ref.Span)
	}
	charged := float64(c.Link.ByKind[phy.LossDefect])
	return float64(c.Link.MarginDB) >= extra-charged
}

// releaseAll tears the circuits down and returns them.
func (a *Allocator) releaseAll(cs []*Circuit) []*Circuit {
	for _, c := range cs {
		a.Release(c)
	}
	return cs
}

// EstablishDegraded establishes the request, halving the wavelength
// width on failure while a narrower circuit could fit (graceful
// degradation). The boolean reports whether the established circuit is
// narrower than requested. Width enters Establish only through the
// endpoint laser check, so after an ErrNoPath failure the ladder halves
// only when an endpoint tile has fewer free lasers than the width, or
// while CheckBudget is set (a retry redraws the stitch losses). Every
// other cause — fibers, buses, a severed span, a stuck switch, ports —
// fails the same way at any width on the unchanged fabric, and with
// CheckBudget off a failed call drew nothing from the loss stream, so
// stopping returns exactly what the narrower calls would have. Any
// other error stops the ladder at once: an invalid request, or a dead
// endpoint, which needs a replacement chip — the core recovery loop's
// decision.
//
// No production path calls it: the controller, the fleet soak and the
// chaos splice establish at full width, because halving moved no
// outcome beyond seed noise. It remains only until the benchmark's
// replay (benchmark/replay_test.go) calls Establish instead.
func (a *Allocator) EstablishDegraded(req Request, now unit.Seconds) (*Circuit, bool, error) {
	for width := req.Width; ; width /= 2 {
		c, err := a.Establish(Request{A: req.A, B: req.B, Width: width}, now)
		if err == nil {
			return c, width < req.Width, nil
		}
		if width <= 1 || !a.shouldDegrade(req, width, err) {
			return nil, false, err
		}
	}
}

// shouldDegrade reports whether a narrower retry of req could end
// differently from the call at width that failed with err.
func (a *Allocator) shouldDegrade(req Request, width int, err error) bool {
	if !errors.Is(err, ErrNoPath) {
		return false
	}
	return a.CheckBudget || a.rack.TileOf(req.A).FreeLasers() < width || a.rack.TileOf(req.B).FreeLasers() < width
}

// orientOf maps a fault's horizontal flag to the wafer orientation.
func orientOf(horizontal bool) wafer.Orient {
	if horizontal {
		return wafer.Horizontal
	}
	return wafer.Vertical
}
