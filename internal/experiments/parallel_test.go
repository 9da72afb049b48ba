package experiments

import (
	"fmt"
	"strings"
	"testing"

	"lightpath/internal/engine"
	"lightpath/internal/unit"
)

// The engine's determinism contract promises that fanning a campaign
// across workers is invisible in the output. These tests hold every
// parallelized campaign to the strongest form of that promise: the
// rendered tables and CSV rows must be byte-identical between a
// sequential run and a parallel run with many workers. Run them under
// -race to also certify the trial bodies share no mutable state.

// renderTabular flattens a Tabular into one comparable string.
func renderTabular(tab Tabular) string {
	var b strings.Builder
	header, rows := tab.CSV()
	fmt.Fprintln(&b, strings.Join(header, ","))
	for _, row := range rows {
		fmt.Fprintln(&b, strings.Join(row, ","))
	}
	return b.String()
}

// parallelCampaigns names every campaign the engine fans out, each
// returning its full rendered output (summary plus CSV when the
// result exports one).
var parallelCampaigns = []struct {
	name string
	run  func() (string, error)
}{
	{"tenant-sweep", func() (string, error) {
		r, err := TenantSweep(6, 10)
		return r.String(), err
	}},
	{"repairability", func() (string, error) {
		r, err := Repairability(21, 15)
		return r.String(), err
	}},
	{"chaos", func() (string, error) {
		r, err := Chaos(2024, 3, unit.MB)
		if err != nil {
			return "", err
		}
		return r.String() + renderTabular(r), nil
	}},
	{"hostnet", func() (string, error) {
		r, err := Hostnet(1, 50)
		if err != nil {
			return "", err
		}
		return r.String() + renderTabular(r), nil
	}},
	{"scheduler", func() (string, error) {
		r, err := Scheduler(1, 6)
		if err != nil {
			return "", err
		}
		return r.String() + renderTabular(r), nil
	}},
	{"fig5", func() (string, error) {
		r, err := Fig5(64*unit.MB, 3)
		if err != nil {
			return "", err
		}
		return r.String() + renderTabular(r), nil
	}},
	{"sweep", func() (string, error) {
		r, err := Sweep(DefaultSweepBuffers(), 4)
		if err != nil {
			return "", err
		}
		return r.String() + renderTabular(r), nil
	}},
	{"ablation-alloc", func() (string, error) {
		r, err := AblationAllocation(11, 8)
		return r.String(), err
	}},
	{"soak", func() (string, error) {
		r, err := Soak(2024, 2)
		if err != nil {
			return "", err
		}
		return r.String() + renderTabular(r), nil
	}},
}

// TestFig5ParallelMatchesSequential fans the Figure 5 planner and the
// buffer sweep out with one worker per trial, so every trial plans at
// once. A trial that shared its fabric (and with it the simulator
// scratch) with another would fail here under -race, or diverge from
// the sequential run without it.
func TestFig5ParallelMatchesSequential(t *testing.T) {
	runs := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig5", func() (string, error) {
			r, err := Fig5(64*unit.MB, 3)
			return r.String() + renderTabular(r), err
		}},
		{"sweep", func() (string, error) {
			r, err := Sweep(DefaultSweepBuffers(), 4)
			return r.String() + renderTabular(r), err
		}},
	}
	prevPar := engine.SetParallel(false)
	prevWorkers := engine.SetWorkers(len(DefaultSweepBuffers()))
	t.Cleanup(func() {
		engine.SetParallel(prevPar)
		engine.SetWorkers(prevWorkers)
	})
	for _, c := range runs {
		engine.SetParallel(false)
		seq, err := c.run()
		if err != nil {
			t.Fatalf("%s sequential: %v", c.name, err)
		}
		engine.SetParallel(true)
		par, err := c.run()
		if err != nil {
			t.Fatalf("%s parallel: %v", c.name, err)
		}
		if seq != par {
			t.Fatalf("%s: parallel output diverged from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", c.name, seq, par)
		}
	}
}

// TestParallelMatchesSequential is the golden cross-check: each
// campaign once with the engine forced sequential, once fanned over
// eight workers, and the rendered bytes must match exactly.
func TestParallelMatchesSequential(t *testing.T) {
	for _, c := range parallelCampaigns {
		c := c
		t.Run(c.name, func(t *testing.T) {
			engine.SetParallel(false)
			seq, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			engine.SetParallel(true)
			engine.SetWorkers(8)
			defer func() {
				engine.SetWorkers(0)
				engine.SetParallel(true)
			}()
			par, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Fatalf("parallel output diverged from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
			if len(seq) == 0 {
				t.Fatal("empty render")
			}
		})
	}
}
