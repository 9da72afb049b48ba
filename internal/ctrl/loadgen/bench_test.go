package loadgen

import (
	"errors"
	"fmt"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/ctrl"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// setupConfig is one trial of the controller campaign's X14 profile at
// 128 agents and 500 arrivals each, its chaos MTBFs scaled to expect
// ten faults over the arrival horizon: the trial whose set-up the
// wall-clock benchmark's campaign workload times.
func setupConfig(seed uint64) Config {
	var rates chaos.Rates
	rates.MTBF[chaos.LaserDeath] = 200 * unit.Millisecond
	rates.MTBF[chaos.MZIStuck] = 400 * unit.Millisecond
	rates.MTBF[chaos.WaveguideLoss] = 200 * unit.Millisecond
	rates.MTBF[chaos.FiberCut] = 800 * unit.Millisecond
	rates.MTBF[chaos.ChipFailure] = 600 * unit.Millisecond
	return Config{
		Seed:             seed,
		Agents:           128,
		ArrivalsPerAgent: 500,
		MeanInterarrival: 1300 * unit.Microsecond,
		MeanHold:         unit.Millisecond,
		Width:            2,
		Deadline:         350 * unit.Microsecond,
		Ctrl: ctrl.Config{
			QueueCap:         64,
			EstablishService: 8 * unit.Microsecond,
			Audit:            invariant.Sampled,
		},
		Backoff: ctrl.Backoff{
			Base: 100 * unit.Microsecond, Factor: 2,
			Cap: 5 * unit.Millisecond, Jitter: 0.5, MaxRetries: 5,
		},
		Rates: rates,
	}
}

// BenchmarkSetup measures construction: "server" builds one
// controller over a fresh two-wafer rack, and "campaign" builds a
// campaign trial and runs it to its first event. The paper metric is
// what each one builds: the rack's chips, and the events the campaign
// queues before its first pop (one arrival per agent plus the chaos
// schedule).
func BenchmarkSetup(b *testing.B) {
	cfg := setupConfig(2024)
	srvCfg := cfg.Ctrl
	srvCfg.Seed = cfg.Seed
	cases := []struct {
		name, unit string
		build      func() (float64, error)
	}{
		{"server", "chips", func() (float64, error) {
			srv, err := ctrl.NewServer(srvCfg)
			if err != nil {
				return 0, err
			}
			return float64(srv.Allocator().Rack().NumChips()), nil
		}},
		{"campaign", "queued_events", func() (float64, error) {
			c, err := build(cfg, CheckpointOptions{StopAfterEvents: 1})
			if err != nil {
				return 0, err
			}
			queued := c.events.Len()
			if _, err := c.run(); !errors.Is(err, ErrStopped) {
				return 0, fmt.Errorf("run to the first event: %v, want ErrStopped", err)
			}
			return float64(queued), nil
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var metric float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if metric, err = tc.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metric, tc.unit)
		})
	}
}
