package core

import (
	"fmt"
	"sort"

	"lightpath/internal/route"
	"lightpath/internal/unit"
)

// This file implements the paper's §5 dynamic-traffic challenge:
// "developing algorithms for traffic patterns that are outside known
// collective operations, such as those required for Mixture of
// Experts (MoE) inference. MoE inference relies on a runtime gating
// function, necessitating dynamic programming of circuits."
//
// The workload: every batch, each participating chip's gating
// function picks k expert chips; tokens must move chip -> expert.
// Circuits are programmed on demand, cached across batches, and
// evicted when the tile's lasers or SerDes ports run out. The result
// quantifies the trade-off the paper highlights: reconfiguration
// delay (3.7 us per new circuit generation) versus transfer time.

// MoEConfig parameterizes the workload.
type MoEConfig struct {
	// Chips is the number of participating accelerators (token
	// holders; experts live on the same chips).
	Chips int
	// Experts is the number of expert-hosting chips (the first
	// Experts chips host one expert each).
	Experts int
	// TopK is how many experts each chip's gate selects per batch.
	TopK int
	// Batches is the number of inference batches to run.
	Batches int
	// BytesPerExpert is the token payload a chip sends to each
	// selected expert per batch.
	BytesPerExpert unit.Bytes
	// CircuitWidth is the wavelength count per circuit.
	CircuitWidth int
	// Skew biases the gate: with probability Skew a chip picks
	// expert 0 (a hot expert); otherwise uniform. 0 = uniform.
	Skew float64
}

// DefaultMoEConfig is a small MoE inference setting on one wafer
// pair: 32 chips, 8 experts, top-2 gating.
func DefaultMoEConfig() MoEConfig {
	return MoEConfig{
		Chips:          32,
		Experts:        8,
		TopK:           2,
		Batches:        64,
		BytesPerExpert: 4 * unit.MB,
		CircuitWidth:   1,
	}
}

// moePair identifies a (token source, expert) circuit.
type moePair struct{ src, dst int }

// MoEResult summarizes a run.
type MoEResult struct {
	Batches int
	// NewCircuits counts circuit establishments (cache misses);
	// ReusedCircuits counts hits.
	NewCircuits, ReusedCircuits int
	// Evictions counts circuits torn down to free endpoint resources.
	Evictions int
	// ReconfigTime is the total time spent waiting for MZIs to
	// settle; TransferTime is the total data movement time.
	ReconfigTime, TransferTime unit.Seconds
	// Makespan is the total simulated time.
	Makespan unit.Seconds
}

// OverheadFraction is the share of the makespan lost to
// reconfiguration — the §5 trade-off made measurable.
func (r *MoEResult) OverheadFraction() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.ReconfigTime / r.Makespan)
}

// RunMoE executes the MoE workload on the fabric, managing circuits
// dynamically with an LRU-less direct cache: a circuit per
// (source, expert) pair lives until the source needs a different
// expert and has no free endpoint resources. The result comes with an
// error wrapping invariant.ErrViolated when the fabric's auditor has
// recorded a violation.
func (f *Fabric) RunMoE(cfg MoEConfig) (*MoEResult, error) {
	if cfg.Chips < 2 || cfg.Chips > f.rack.NumChips() {
		return nil, fmt.Errorf("core: MoE chips %d out of range [2, %d]", cfg.Chips, f.rack.NumChips())
	}
	if cfg.Experts < 1 || cfg.Experts > cfg.Chips {
		return nil, fmt.Errorf("core: MoE experts %d out of range [1, %d]", cfg.Experts, cfg.Chips)
	}
	if cfg.TopK < 1 || cfg.TopK > cfg.Experts {
		return nil, fmt.Errorf("core: MoE topK %d out of range [1, %d]", cfg.TopK, cfg.Experts)
	}
	if cfg.CircuitWidth < 1 {
		return nil, fmt.Errorf("core: MoE circuit width %d", cfg.CircuitWidth)
	}

	gate := f.rand.Split("moe-gate")
	cache := map[moePair]*route.Circuit{}
	res := &MoEResult{Batches: cfg.Batches}
	now := unit.Seconds(0)
	perWL := f.rack.Config().WavelengthCapacity

	for b := 0; b < cfg.Batches; b++ {
		// Gate: each chip selects TopK distinct experts.
		wanted := map[moePair]bool{}
		for chip := 0; chip < cfg.Chips; chip++ {
			selected := map[int]bool{}
			for len(selected) < cfg.TopK {
				var e int
				if cfg.Skew > 0 && gate.Float64() < cfg.Skew {
					e = 0
				} else {
					e = gate.Intn(cfg.Experts)
				}
				selected[e] = true
			}
			for e := range selected {
				if e == chip {
					continue // expert co-located with the tokens
				}
				wanted[moePair{src: chip, dst: e}] = true
			}
		}

		// Program circuits for the batch, in deterministic order so
		// resource assignment is reproducible under scarcity. A hot
		// expert may want more simultaneous circuits than its tile
		// has lasers/SerDes ports; pairs that cannot get a circuit
		// this wave are deferred to the next wave of the same batch —
		// the serialization a real runtime would apply.
		pending := make([]moePair, 0, len(wanted))
		for p := range wanted {
			pending = append(pending, p)
		}
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].src != pending[j].src {
				return pending[i].src < pending[j].src
			}
			return pending[i].dst < pending[j].dst
		})
		for len(pending) > 0 {
			waveWanted := map[moePair]bool{}
			var waveCircuits []*route.Circuit
			var deferred []moePair
			reconfigured := false
			for _, p := range pending {
				if c, ok := cache[p]; ok {
					res.ReusedCircuits++
					waveWanted[p] = true
					waveCircuits = append(waveCircuits, c)
					continue
				}
				c, err := f.establishWithEviction(p.src, p.dst, cfg.CircuitWidth, now, cache, waveWanted, res)
				if err != nil {
					deferred = append(deferred, p)
					continue
				}
				cache[p] = c
				waveWanted[p] = true
				waveCircuits = append(waveCircuits, c)
				res.NewCircuits++
				reconfigured = true
			}
			if len(waveCircuits) == 0 {
				return nil, fmt.Errorf("core: MoE batch %d: no circuit for %d pending pairs (width %d exceeds tile resources)",
					b, len(deferred), cfg.CircuitWidth)
			}
			if reconfigured {
				// All new MZIs settle in parallel: one reconfiguration
				// delay per wave that changed anything.
				res.ReconfigTime += f.params.Reconfig
				now += f.params.Reconfig
			}

			// Transfer: dedicated circuits, so the wave lasts as long
			// as the busiest source chip. Each source sends
			// BytesPerExpert per circuit, circuits in parallel
			// (separate wavelengths).
			var worst unit.Seconds
			perSrc := map[int]unit.Seconds{}
			for _, c := range waveCircuits {
				bw := c.Bandwidth(perWL)
				perSrc[c.A] += bw.TimeFor(cfg.BytesPerExpert)
			}
			for _, t := range perSrc {
				if t > worst {
					worst = t
				}
			}
			res.TransferTime += worst
			now += worst
			pending = deferred
		}
	}
	res.Makespan = now
	return res, f.aud.Err()
}

// establishWithEviction tries to establish src->dst, evicting cached
// circuits that are not wanted this batch when endpoint resources run
// out.
func (f *Fabric) establishWithEviction(src, dst, width int, now unit.Seconds, cache map[moePair]*route.Circuit, wanted map[moePair]bool, res *MoEResult) (*route.Circuit, error) {
	c, err := f.alloc.Establish(route.Request{A: src, B: dst, Width: width}, now)
	if err == nil {
		return c, nil
	}
	// Evict idle cached circuits — first those touching either
	// endpoint, then any — retrying after each. Keys are sorted so
	// eviction order (and therefore the whole run) is deterministic.
	keys := make([]moePair, 0, len(cache))
	for p := range cache {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	for _, endpointOnly := range [2]bool{true, false} {
		for _, p := range keys {
			cached, ok := cache[p]
			if !ok || wanted[p] {
				continue
			}
			touches := p.src == src || p.dst == dst || p.src == dst || p.dst == src
			if endpointOnly && !touches {
				continue
			}
			f.alloc.Release(cached)
			delete(cache, p)
			res.Evictions++
			if c, err = f.alloc.Establish(route.Request{A: src, B: dst, Width: width}, now); err == nil {
				return c, nil
			}
		}
	}
	return nil, err
}
