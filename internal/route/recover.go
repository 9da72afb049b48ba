package route

import (
	"errors"
	"fmt"

	"lightpath/internal/chaos"
	"lightpath/internal/phy"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// This file is the routing half of the failure lifecycle: it maps the
// chaos engine's faults onto the hardware's health state, decides
// which established circuits a fault invalidates, tears those down,
// and re-establishes them over surviving resources — at reduced
// wavelength width when full-width repair is impossible.

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
//   - FiberCut: every circuit using the cut trunk row.
func (a *Allocator) ApplyFault(f chaos.Fault) ([]*Circuit, error) {
	a.beginOp()
	defer a.endOp("apply-fault")
	// Any fault class can reshape the viable-plan set (chip and fiber
	// faults directly; the others via hardware health the plans bake
	// in conservatively) — invalidate the plan cache wholesale.
	a.bumpPlanEpoch()
	switch f.Class {
	case chaos.ChipFailure:
		if err := a.checkChip(f.Chip); err != nil {
			return nil, err
		}
		a.rack.TileOf(f.Chip).FailChip()
		return a.releaseAll(a.CircuitsAt(f.Chip)), nil

	case chaos.LaserDeath:
		if err := a.checkChip(f.Chip); err != nil {
			return nil, err
		}
		tile := a.rack.TileOf(f.Chip)
		tile.FailLasers(1)
		// Over-commit: shed the newest circuits first until the tile's
		// remaining lasers cover the survivors.
		var shed []*Circuit
		at := a.CircuitsAt(f.Chip)
		for i := len(at) - 1; i >= 0 && tile.FreeLasers() < 0; i-- {
			a.Release(at[i])
			shed = append(shed, at[i])
		}
		return shed, nil

	case chaos.MZIStuck:
		if err := a.checkChip(f.Chip); err != nil {
			return nil, err
		}
		return nil, a.rack.TileOf(f.Chip).FailSwitch(f.Switch)

	case chaos.WaveguideLoss:
		if f.Wafer < 0 || f.Wafer >= a.rack.NumWafers() {
			return nil, fmt.Errorf("route: fault wafer %d out of range [0, %d)", f.Wafer, a.rack.NumWafers())
		}
		w := a.rack.Wafer(f.Wafer)
		o := orientOf(f.Horizontal)
		if err := w.DegradeSegment(o, f.Lane, f.Pos, f.ExtraLossDB); err != nil {
			return nil, err
		}
		var broken []*Circuit
		for _, c := range a.CircuitsOverSegment(f.Wafer, f.Horizontal, f.Lane, f.Pos) {
			if !a.StillFeasible(c) {
				broken = append(broken, c)
			}
		}
		return a.releaseAll(broken), nil

	case chaos.FiberCut:
		return a.FailFiberRow(f.Trunk, f.Row), nil
	}
	return nil, fmt.Errorf("route: unknown fault class %d", int(f.Class))
}

// checkChip validates a fault's chip id against the rack.
func (a *Allocator) checkChip(chip int) error {
	if chip < 0 || chip >= a.rack.NumChips() {
		return fmt.Errorf("route: fault chip %d out of range [0, %d)", chip, a.rack.NumChips())
	}
	return nil
}

// CircuitsAt returns the established circuits terminating at the
// chip, in ID order.
func (a *Allocator) CircuitsAt(chip int) []*Circuit {
	var out []*Circuit
	for _, c := range a.Circuits() {
		if c.A == chip || c.B == chip {
			out = append(out, c)
		}
	}
	return out
}

// CircuitsOverSegment returns the established circuits whose path
// crosses one tile position of a bus lane, in ID order.
func (a *Allocator) CircuitsOverSegment(waferIdx int, horizontal bool, lane, pos int) []*Circuit {
	o := orientOf(horizontal)
	var out []*Circuit
	for _, c := range a.Circuits() {
		for _, s := range c.Segments {
			if s.Wafer == waferIdx && s.Ref.Orient == o && s.Ref.Lane == lane &&
				s.Ref.Span.Lo <= pos && pos <= s.Ref.Span.Hi {
				out = append(out, c)
				break
			}
		}
	}
	return out
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
// width on failure until it fits (graceful degradation). The boolean
// reports whether the established circuit is narrower than requested.
// Endpoint chip failures are not retried — they need a replacement
// chip, which is the core recovery loop's decision.
func (a *Allocator) EstablishDegraded(req Request, now unit.Seconds) (*Circuit, bool, error) {
	var lastErr error
	for width := req.Width; width >= 1; width /= 2 {
		c, err := a.Establish(Request{A: req.A, B: req.B, Width: width}, now)
		if err == nil {
			return c, width < req.Width, nil
		}
		lastErr = err
		if !shouldDegrade(err) {
			break
		}
	}
	return nil, false, lastErr
}

// shouldDegrade reports whether narrowing the circuit could help: path
// and resource exhaustion can, a dead endpoint cannot.
func shouldDegrade(err error) bool {
	return !errors.Is(err, ErrEndpointFailed)
}

// orientOf maps a fault's horizontal flag to the wafer orientation.
func orientOf(horizontal bool) wafer.Orient {
	if horizontal {
		return wafer.Horizontal
	}
	return wafer.Vertical
}
