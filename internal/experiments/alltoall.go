package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/collective"
	"lightpath/internal/cost"
	"lightpath/internal/netsim"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// AllToAllPoint is one buffer size of the all-to-all study.
type AllToAllPoint struct {
	Buffer                      unit.Bytes // per-chip buffer
	ElectricalTime, OpticalTime unit.Seconds
	Speedup                     float64
}

// AllToAllResult is the §5 hard case quantified: AllToAll over a
// 16-chip slice, electrical dimension-ordered routing (multi-hop,
// congesting) versus per-step reprogrammed optical circuits (p-1
// reconfigurations of 3.7 us each).
type AllToAllResult struct {
	Chips, Steps int
	// Reconfigs is the optical reconfiguration count (= steps).
	Reconfigs int
	Points    []AllToAllPoint
	// CrossoverBuffer is the smallest swept buffer where optics wins.
	CrossoverBuffer unit.Bytes
}

// String renders the series.
func (r AllToAllResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AllToAll over %d chips (§5's hard case): %d steps, %d optical reconfigurations\n",
		r.Chips, r.Steps, r.Reconfigs)
	fmt.Fprintf(&b, "  %-12s %-14s %-14s %-8s\n", "buffer/chip", "electrical", "optical", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-12v %-14v %-14v %.2fx\n", p.Buffer, p.ElectricalTime, p.OpticalTime, p.Speedup)
	}
	if r.CrossoverBuffer > 0 {
		fmt.Fprintf(&b, "  optics wins from %v upward despite reprogramming every step\n", r.CrossoverBuffer)
	} else {
		fmt.Fprintf(&b, "  optics never wins in the swept range\n")
	}
	return b.String()
}

// AllToAll runs the study over the 16 chips of a 4x4 plane of a TPU
// rack for the given per-chip buffer sizes.
func AllToAll(buffers []unit.Bytes) (AllToAllResult, error) {
	t := torus.New(torus.TPUv4RackShape)
	s := &torus.Slice{Name: "plane", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 1}}
	chips := s.Chips(t)
	p := cost.DefaultParams()
	res := AllToAllResult{Chips: len(chips)}

	var exec netsim.Executor
	for _, buf := range buffers {
		n := int(buf / 4)
		if n < len(chips) {
			n = len(chips)
		}
		// Uniform blocks: round up to a multiple of the chip count.
		if rem := n % len(chips); rem != 0 {
			n += len(chips) - rem
		}
		elecSched, err := collective.AllToAll("a2a/elec", chips, n, 4, false)
		if err != nil {
			return AllToAllResult{}, err
		}
		optSched, err := collective.AllToAll("a2a/opt", chips, n, 4, true)
		if err != nil {
			return AllToAllResult{}, err
		}
		res.Steps = elecSched.NumSteps()
		res.Reconfigs = optSched.Reconfigs()

		// Electrical: dimension-ordered routing over the torus; every
		// hop contends for the per-dimension link share.
		pathOf := func(tr collective.Transfer) []torus.Link { return t.DORPath(tr.From, tr.To) }
		elec, err := exec.Electrical(elecSched, t, p.ChipBandwidth/unit.BitRate(p.PhysDims), pathOf, netsim.ExecOptions{Alpha: p.Alpha})
		if err != nil {
			return AllToAllResult{}, err
		}
		// Optical: one dedicated circuit per chip per step at the full
		// egress (only one partner at a time), reprogrammed each step.
		opt, err := exec.Optical(optSched, p.ChipBandwidth, netsim.ExecOptions{Alpha: p.Alpha, Reconfig: p.Reconfig})
		if err != nil {
			return AllToAllResult{}, err
		}
		point := AllToAllPoint{Buffer: buf, ElectricalTime: elec, OpticalTime: opt}
		if opt > 0 {
			point.Speedup = float64(elec / opt)
		}
		res.Points = append(res.Points, point)
		if res.CrossoverBuffer == 0 && opt < elec {
			res.CrossoverBuffer = buf
		}
	}
	return res, nil
}

// DefaultAllToAllBuffers is the CLI's sweep: 16 KB to 64 MB per chip.
func DefaultAllToAllBuffers() []unit.Bytes {
	var out []unit.Bytes
	for b := 16 * unit.KiB; b <= 64*unit.MiB; b *= 8 {
		out = append(out, b)
	}
	return out
}
