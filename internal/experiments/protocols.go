package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/core"
	"lightpath/internal/hostnet"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// ProtocolRow is one message size of the eager/rendezvous study.
type ProtocolRow struct {
	Size       unit.Bytes
	Eager      unit.Seconds // +Inf-like sentinel never used; sizes above the limit report rendezvous only
	Rendezvous unit.Seconds
	Best       string
}

// ProtocolResult is the circuit-stack protocol study: where the
// receiver-copy cost of eager sends crosses the handshake cost of
// rendezvous, on a warm LIGHTPATH circuit.
type ProtocolResult struct {
	Crossover  unit.Bytes
	EagerLimit unit.Bytes
	Rows       []ProtocolRow
}

// String renders the table.
func (r ProtocolResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Circuit-stack protocols: eager (bounce copy) vs rendezvous (handshake), warm circuit\n")
	fmt.Fprintf(&b, "  analytic crossover: %v; eager limit: %v\n", r.Crossover, r.EagerLimit)
	fmt.Fprintf(&b, "  %-10s %-14s %-14s %-10s\n", "size", "eager", "rendezvous", "best")
	for _, row := range r.Rows {
		eager := "-"
		if row.Eager > 0 {
			eager = row.Eager.String()
		}
		fmt.Fprintf(&b, "  %-10v %-14s %-14v %-10s\n", row.Size, eager, row.Rendezvous, row.Best)
	}
	return b.String()
}

// CSV implements Tabular.
func (r ProtocolResult) CSV() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f64(float64(row.Size)), f64(float64(row.Eager)),
			f64(float64(row.Rendezvous)), row.Best,
		})
	}
	return []string{"size_bytes", "eager_s", "rendezvous_s", "best"}, rows
}

// Protocols runs the eager/rendezvous study over a size ladder.
func Protocols() ProtocolResult {
	p := hostnet.DefaultProtocolParams()
	res := ProtocolResult{Crossover: p.ProtocolCrossover(), EagerLimit: p.EagerLimit}
	for size := unit.Bytes(256); size <= 4*unit.MiB; size *= 4 {
		row := ProtocolRow{Size: size, Rendezvous: p.RendezvousLatency(size, true)}
		if size <= p.EagerLimit {
			row.Eager = p.EagerLatency(size, true)
		}
		_, row.Best = p.BestProtocolLatency(size, true)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// MoERow is one payload size of the MoE overhead sweep.
type MoERow struct {
	BytesPerExpert unit.Bytes
	NewCircuits    int
	Reused         int
	Overhead       float64 // reconfiguration fraction of the makespan
	Makespan       unit.Seconds
}

// MoEResult is the §5 trade-off curve: the reconfiguration overhead
// of dynamic MoE circuits as a function of per-expert payload.
type MoEResult struct {
	Config core.MoEConfig
	Rows   []MoERow
}

// String renders the table.
func (r MoEResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MoE dynamic circuits (§5): %d chips, top-%d of %d experts, %d batches\n",
		r.Config.Chips, r.Config.TopK, r.Config.Experts, r.Config.Batches)
	fmt.Fprintf(&b, "  %-14s %-10s %-10s %-12s %-12s\n",
		"bytes/expert", "new", "reused", "makespan", "reconfig %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14v %-10d %-10d %-12v %.2f%%\n",
			row.BytesPerExpert, row.NewCircuits, row.Reused, row.Makespan, row.Overhead*100)
	}
	return b.String()
}

// CSV implements Tabular.
func (r MoEResult) CSV() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f64(float64(row.BytesPerExpert)), fmt.Sprintf("%d", row.NewCircuits),
			fmt.Sprintf("%d", row.Reused), f64(float64(row.Makespan)), f64(row.Overhead),
		})
	}
	return []string{"bytes_per_expert", "new_circuits", "reused", "makespan_s", "overhead"}, rows
}

// MoE sweeps the per-expert payload to expose where reconfiguration
// stops being noise (§5's resource-allocation challenge).
func MoE(seed uint64) (MoEResult, error) {
	base := core.DefaultMoEConfig()
	base.Batches = 32
	res := MoEResult{Config: base}
	for _, bytes := range []unit.Bytes{16 * unit.KB, 256 * unit.KB, 4 * unit.MB} {
		fabric, err := core.New(core.Options{Seed: seed, Audit: invariant.Sampled})
		if err != nil {
			return res, err
		}
		cfg := base
		cfg.BytesPerExpert = bytes
		out, err := fabric.RunMoE(cfg)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, MoERow{
			BytesPerExpert: bytes,
			NewCircuits:    out.NewCircuits,
			Reused:         out.ReusedCircuits,
			Overhead:       out.OverheadFraction(),
			Makespan:       out.Makespan,
		})
	}
	return res, nil
}
