package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/alloc"
	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/unit"
)

// Fig5Row is one slice's line in the Figure 5b/5c reproduction.
type Fig5Row struct {
	Slice      string
	Shape      string
	Electrical float64 // fraction of chip bandwidth, electrical torus
	Optical    float64 // with LIGHTPATH redirection
	// Algorithm, Speedup and the two times come from the end-to-end
	// planner at a 64 MB AllReduce.
	Algorithm                   string
	ElectricalTime, OpticalTime unit.Seconds
	Speedup                     float64
}

// Fig5Result is experiment E6.
type Fig5Result struct {
	Rows []Fig5Row
	// MaxDrop is the worst electrical bandwidth loss across slices
	// (paper: "up to 66% lower bandwidth").
	MaxDrop float64
}

// String renders the result.
func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5b/5c: bandwidth utilization of sub-rack slices (electrical vs optical)\n")
	fmt.Fprintf(&b, "  %-10s %-8s %-12s %-10s %-12s %-14s %-14s %-8s\n",
		"slice", "shape", "elec util", "opt util", "algorithm", "elec time", "opt time", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-8s %-12.2f %-10.2f %-12s %-14v %-14v %.2fx\n",
			row.Slice, row.Shape, row.Electrical, row.Optical, row.Algorithm,
			row.ElectricalTime, row.OpticalTime, row.Speedup)
	}
	fmt.Fprintf(&b, "  worst electrical bandwidth drop = %.0f%% (paper: up to 66%%)\n", r.MaxDrop*100)
	return b.String()
}

// Fig5 reproduces Figure 5b/5c: the four-tenant rack, each slice's
// usable bandwidth fraction on both interconnects, and the end-to-end
// AllReduce comparison at the given buffer size.
func Fig5(buffer unit.Bytes, seed uint64) (Fig5Result, error) {
	_, a, err := alloc.Fig5b()
	if err != nil {
		return Fig5Result{}, err
	}
	fabric, err := core.New(core.Options{Seed: seed})
	if err != nil {
		return Fig5Result{}, err
	}
	var res Fig5Result
	util := core.UtilizationReport(a)
	// PlanAllReduce reuses the fabric's simulator scratch, so each
	// per-slice trial plans on its own clone; MaxDrop folds in slice
	// order.
	rows, err := engine.Map(len(util), func(si int) (Fig5Row, error) {
		u := util[si]
		plan, err := fabric.Clone().PlanAllReduce(a, si, buffer)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("experiments: plan for %s: %w", u.Slice, err)
		}
		return Fig5Row{
			Slice:          u.Slice,
			Shape:          a.Slices()[si].Shape.String(),
			Electrical:     u.Electrical,
			Optical:        u.Optical,
			Algorithm:      plan.Algorithm,
			ElectricalTime: plan.ElectricalTime,
			OpticalTime:    plan.OpticalTime,
			Speedup:        plan.Speedup(),
		}, nil
	})
	if err != nil {
		return Fig5Result{}, err
	}
	res.Rows = rows
	for _, u := range util {
		if u.Optical > 0 {
			if drop := 1 - u.Electrical/u.Optical; drop > res.MaxDrop {
				res.MaxDrop = drop
			}
		}
	}
	return res, nil
}

// SweepPoint is one buffer size of the E11 crossover sweep.
type SweepPoint struct {
	Buffer                      unit.Bytes
	ElectricalTime, OpticalTime unit.Seconds
	Speedup                     float64
}

// SweepResult is experiment E11: AllReduce completion time vs buffer
// size, electrical vs optical, locating the crossover where the
// 3.7 us reconfiguration stops mattering.
type SweepResult struct {
	Slice  string
	Points []SweepPoint
	// CrossoverBuffer is the smallest swept buffer where optics wins;
	// zero if it never wins in the swept range.
	CrossoverBuffer unit.Bytes
}

// String renders the series.
func (r SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Buffer-size sweep (%s AllReduce): electrical vs optical completion time\n", r.Slice)
	fmt.Fprintf(&b, "  %-12s %-14s %-14s %-8s\n", "buffer", "electrical", "optical", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-12v %-14v %-14v %.2fx\n", p.Buffer, p.ElectricalTime, p.OpticalTime, p.Speedup)
	}
	if r.CrossoverBuffer > 0 {
		fmt.Fprintf(&b, "  optics wins from %v upward (reconfiguration amortized)\n", r.CrossoverBuffer)
	} else {
		fmt.Fprintf(&b, "  optics never wins in the swept range\n")
	}
	return b.String()
}

// Sweep runs E11 over Slice-1 of the Figure 5b rack for the given
// buffer sizes.
func Sweep(buffers []unit.Bytes, seed uint64) (SweepResult, error) {
	_, a, err := alloc.Fig5b()
	if err != nil {
		return SweepResult{}, err
	}
	fabric, err := core.New(core.Options{Seed: seed})
	if err != nil {
		return SweepResult{}, err
	}
	res := SweepResult{Slice: "Slice-1"}
	// Each buffer size plans on its own clone of the fabric (planning
	// reuses the fabric's simulator scratch); the crossover scan below
	// runs on the merged, ordered points so the "smallest winning
	// buffer" answer is unchanged.
	points, err := engine.Map(len(buffers), func(i int) (SweepPoint, error) {
		plan, err := fabric.Clone().PlanAllReduce(a, 0, buffers[i])
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{
			Buffer:         buffers[i],
			ElectricalTime: plan.ElectricalTime,
			OpticalTime:    plan.OpticalTime,
			Speedup:        plan.Speedup(),
		}, nil
	})
	if err != nil {
		return SweepResult{}, err
	}
	res.Points = points
	for _, p := range res.Points {
		if p.OpticalTime < p.ElectricalTime {
			res.CrossoverBuffer = p.Buffer
			break
		}
	}
	return res, nil
}

// DefaultSweepBuffers is the buffer ladder the CLI sweeps: 4 KB to
// 256 MB.
func DefaultSweepBuffers() []unit.Bytes {
	var out []unit.Bytes
	for b := 4 * unit.KiB; b <= 256*unit.MiB; b *= 4 {
		out = append(out, b)
	}
	return out
}
