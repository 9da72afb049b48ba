package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/core"
	"lightpath/internal/invariant"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

// ScaleRow is one cluster size of the Figure 5a scaling study.
type ScaleRow struct {
	Cubes    int
	Shape    string
	Chips    int
	Steps    int
	ElecTime unit.Seconds
	OptTime  unit.Seconds
	Speedup  float64
}

// ScaleResult is the Figure 5a study: OCSes splice 4x4x4 cubes into
// larger tori ("The optical circuit switches can be programmed to
// directly connect multiple racks or cubes together into larger
// tori"); a full multi-cube slice runs the 3-D bucket AllReduce over
// the joined torus. Both interconnects serve full-torus slices at
// their static per-dimension bandwidth, so the photonic advantage is
// neutral here — the point is that the fabric *scales*: time grows
// with the slice while per-chip throughput holds.
type ScaleResult struct {
	Buffer unit.Bytes
	Rows   []ScaleRow
}

// String renders the series.
func (r ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5a scaling: cubes spliced into larger tori (AllReduce of %v)\n", r.Buffer)
	fmt.Fprintf(&b, "  %-6s %-8s %-6s %-6s %-14s %-14s %-8s\n",
		"cubes", "torus", "chips", "steps", "electrical", "optical", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6d %-8s %-6d %-6d %-14v %-14v %.2fx\n",
			row.Cubes, row.Shape, row.Chips, row.Steps, row.ElecTime, row.OptTime, row.Speedup)
	}
	return b.String()
}

// CSV implements Tabular.
func (r ScaleResult) CSV() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Cubes), row.Shape, fmt.Sprintf("%d", row.Chips),
			f64(float64(row.ElecTime)), f64(float64(row.OptTime)), f64(row.Speedup),
		})
	}
	return []string{"cubes", "shape", "chips", "elec_time_s", "opt_time_s", "speedup"}, rows
}

// Scale joins 1, 2 and 4 cubes along Z (verifying the OCS splices on
// a real Cluster first) and plans the full-torus AllReduce on each.
func Scale(buffer unit.Bytes, seed uint64) (ScaleResult, error) {
	res := ScaleResult{Buffer: buffer}
	for _, cubes := range []int{1, 2, 4} {
		// The OCS-level splice: cubes joined along Z must compose into
		// one torus of extent 4*cubes.
		if cubes > 1 {
			cluster, err := torus.NewCluster(torus.TPUv4RackShape, cubes)
			if err != nil {
				return res, err
			}
			seq := make([]int, cubes)
			for i := range seq {
				seq[i] = i
			}
			if err := cluster.Join(2, seq); err != nil {
				return res, err
			}
		}
		shape := torus.Shape{4, 4, 4 * cubes}
		fabric, err := core.New(core.Options{RackShape: shape, Seed: seed, Audit: invariant.Paranoid})
		if err != nil {
			return res, err
		}
		slice := &torus.Slice{Name: fmt.Sprintf("%d-cube", cubes), Origin: torus.Coord{0, 0, 0}, Shape: shape}
		a, err := torus.NewAllocation(fabric.Torus(), []*torus.Slice{slice})
		if err != nil {
			return res, err
		}
		plan, err := fabric.PlanAllReduce(a, 0, buffer)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, ScaleRow{
			Cubes:    cubes,
			Shape:    shape.String(),
			Chips:    shape.Size(),
			Steps:    plan.Schedule.NumSteps(),
			ElecTime: plan.ElectricalTime,
			OptTime:  plan.OpticalTime,
			Speedup:  plan.Speedup(),
		})
	}
	return res, nil
}
