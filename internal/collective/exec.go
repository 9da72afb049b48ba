package collective

import (
	"fmt"
	"math"
	"sort"
)

// This file is the schedule interpreter: it executes a Schedule
// against real per-chip buffers so tests can prove that the generated
// communication pattern computes the mathematically correct
// ReduceScatter/AllGather/AllReduce result for arbitrary inputs — a
// DESIGN.md invariant.

// State holds each chip's buffer.
type State map[int][]float64

// NewState allocates an n-element buffer per chip, filled by fill
// (which receives the chip ID and element index). The buffers share
// one backing array, each capped at its own n elements.
func NewState(chips []int, n int, fill func(chip, i int) float64) State {
	st := make(State, len(chips))
	backing := make([]float64, len(chips)*n)
	for ci, c := range chips {
		buf := backing[ci*n : (ci+1)*n : (ci+1)*n]
		if fill != nil {
			for i := range buf {
				buf[i] = fill(c, i)
			}
		}
		st[c] = buf
	}
	return st
}

// Clone deep-copies the state.
func (st State) Clone() State {
	out := make(State, len(st))
	for c, buf := range st {
		b := make([]float64, len(buf))
		copy(b, buf)
		out[c] = b
	}
	return out
}

// Execute applies the schedule's steps in order. Within a step, all
// payloads are read from the pre-step state before any write is
// applied, so concurrent transfers behave as they would on real
// hardware where sends and receives of a step overlap in time.
//
// Execute is a convenience shim over a fresh Interp; callers running
// many schedules (the chaos trials) hold an Interp so the per-step
// payload staging is reused instead of reallocated.
func (st State) Execute(s *Schedule) error {
	var ip Interp
	return ip.Execute(st, s)
}

// delivery is one staged transfer: its payload, read from the
// pre-step state, sits at payloads[off:off+n] and waits to be applied.
type delivery struct {
	to, lo int
	off, n int
	reduce bool
}

// Interp is a reusable schedule interpreter. The per-step delivery
// list and the arena backing the staged payloads persist across calls,
// so steady-state execution does not allocate. A zero Interp is ready
// to use; it must not be shared between goroutines.
type Interp struct {
	deliveries []delivery
	payloads   []float64
}

// Execute validates the schedule and applies its steps in order, like
// State.Execute, reusing the interpreter's scratch.
func (ip *Interp) Execute(st State, s *Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for si := range s.Steps {
		if err := ip.ExecuteStep(st, s, si); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteStep applies step si only — the resume path of the failure
// experiments, which replay a schedule one step at a time around a
// fault. It checks chips and ranges against the live state but does
// not re-run Validate; callers validate the schedule once up front
// (and again after mutating it).
func (ip *Interp) ExecuteStep(st State, s *Schedule, si int) error {
	step := &s.Steps[si]
	// Read-before-write: every payload is staged before any delivery
	// lands, so a transfer writing into another's source range cannot
	// change what that transfer sends.
	ip.deliveries = ip.deliveries[:0]
	ip.payloads = ip.payloads[:0]
	for ti, tr := range step.Transfers {
		src, ok := st[tr.From]
		if !ok {
			return fmt.Errorf("collective: step %d transfer %d reads unknown chip %d", si, ti, tr.From)
		}
		if _, ok := st[tr.To]; !ok {
			return fmt.Errorf("collective: step %d transfer %d writes unknown chip %d", si, ti, tr.To)
		}
		if tr.Range.Hi > len(src) {
			return fmt.Errorf("collective: step %d transfer %d range %v exceeds buffer %d", si, ti, tr.Range, len(src))
		}
		dst := tr.DstRange()
		if dst.Hi > len(st[tr.To]) {
			return fmt.Errorf("collective: step %d transfer %d destination %v exceeds buffer %d", si, ti, dst, len(st[tr.To]))
		}
		ip.deliveries = append(ip.deliveries, delivery{to: tr.To, lo: dst.Lo, off: len(ip.payloads), n: dst.Len(), reduce: tr.Reduce})
		ip.payloads = append(ip.payloads, src[tr.Range.Lo:tr.Range.Hi]...)
	}
	for _, d := range ip.deliveries {
		// Subslicing to the exact windows lets the compiler drop the
		// per-element bounds checks in the reduce loop.
		payload := ip.payloads[d.off : d.off+d.n]
		dst := st[d.to][d.lo : d.lo+d.n]
		if d.reduce {
			for i, v := range payload {
				dst[i] += v
			}
		} else {
			copy(dst, payload)
		}
	}
	return nil
}

// ReduceAcross returns the element-wise sum of the chips' initial
// buffers — the reference result of an AllReduce with summation.
func ReduceAcross(st State, chips []int, n int) []float64 {
	dst := make([]float64, n)
	for _, c := range chips {
		for i, v := range st[c] {
			dst[i] += v
		}
	}
	return dst
}

// CheckAllReduce verifies every chip's buffer equals the reference
// within floating-point tolerance.
func CheckAllReduce(st State, chips []int, ref []float64) error {
	for _, c := range chips {
		buf := st[c]
		if len(buf) != len(ref) {
			return fmt.Errorf("collective: chip %d buffer length %d, want %d", c, len(buf), len(ref))
		}
		for i, v := range buf {
			if !approxEqual(v, ref[i]) {
				return fmt.Errorf("collective: chip %d element %d = %v, want %v", c, i, v, ref[i])
			}
		}
	}
	return nil
}

// CheckReduceScatter verifies each chip's owned range holds the
// reference reduction, that owned ranges are disjoint, and that they
// jointly cover [0, n).
func CheckReduceScatter(st State, owned map[int]Range, ref []float64) error {
	covered := make([]int, len(ref))
	chips := make([]int, 0, len(owned))
	for c := range owned {
		chips = append(chips, c)
	}
	sort.Ints(chips)
	for _, c := range chips {
		r := owned[c]
		buf := st[c]
		for i := r.Lo; i < r.Hi; i++ {
			if !approxEqual(buf[i], ref[i]) {
				return fmt.Errorf("collective: chip %d owned element %d = %v, want %v", c, i, buf[i], ref[i])
			}
			covered[i]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			return fmt.Errorf("collective: element %d covered %d times, want exactly once", i, n)
		}
	}
	return nil
}

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	// NaN fails: diff is NaN whenever a or b is, and NaN <= x is false
	// for every x.
	diff := math.Abs(a - b)
	scale := math.Abs(a)
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}
