package invariant_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// The detection-latency harness measures how many mutations pass
// between a corruption and the first audit that reports it, for the
// three ways an auditor can run: Paranoid, the former Sampled auditor
// (a full pass every DefaultStride-th mutation), and the Sampled
// auditor with delta audits.

// latencyPlants are the harness's corruptions, one per registered
// invariant in registry order: a differential-test sabotage applied to
// one victim circuit, which needs to hold what the sabotage takes.
var latencyPlants = []struct {
	sabotage string
	needs    func(c *route.Circuit) bool
}{
	{"zero width", func(*route.Circuit) bool { return true }},
	{"span dropped from the lane occupancy", func(c *route.Circuit) bool { return len(c.Segments) > 0 }},
	{"dropped fiber", func(c *route.Circuit) bool { return len(c.Fibers) > 0 }},
	{"width changed", func(*route.Circuit) bool { return true }},
	{"endpoint chip failed", func(*route.Circuit) bool { return true }},
	{"switch flipped", func(*route.Circuit) bool { return true }},
}

func sabotageNamed(name string) sabotage {
	for _, sb := range sabotages {
		if sb.name == name {
			return sb
		}
	}
	panic("no sabotage " + name)
}

// campaignStream drives the controller campaign's rack (two default
// wafers) with width-2 establishes between seeded chips, releases of
// seeded live circuits and, one step in a hundred, the next fault of a
// chaos schedule. Once the victim is set, the stream never releases it
// and skips the faults that would reach what it held, so a corruption
// planted on it stays until an audit reports it. step returns the
// circuit its establish granted, if any.
func campaignStream(t *testing.T, seed uint64, v *victim) (*route.Allocator, func(i int) *route.Circuit) {
	t.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, rng.New(seed).Split("loss"))
	cfg := rack.Config()
	var rates chaos.Rates
	for c := 0; c < chaos.NumClasses; c++ {
		rates.MTBF[c] = 10 * unit.Millisecond
	}
	eng, err := chaos.NewEngine(seed, chaos.Components{
		Chips:           rack.NumChips(),
		SwitchesPerTile: wafer.SwitchesPerTile,
		Wafers:          rack.NumWafers(),
		Rows:            cfg.Rows,
		Cols:            cfg.Cols,
		Trunks:          rack.NumTrunks(),
	}, rates)
	if err != nil {
		t.Fatal(err)
	}
	faults := eng.Schedule(1.0)
	r := rng.New(seed).Split("stream")
	return a, func(i int) *route.Circuit {
		switch x := r.Intn(100); {
		case x < 55:
			req := route.Request{A: r.Intn(rack.NumChips()), B: r.Intn(rack.NumChips()), Width: 2}
			if req.A != req.B {
				c, _ := a.Establish(req, unit.Seconds(i)*unit.Microsecond)
				return c
			}
		case x < 99:
			if cs := a.Circuits(); len(cs) > 0 {
				if c := cs[r.Intn(len(cs))]; c != v.live {
					a.Release(c)
				}
			}
		default:
			if len(faults) > 0 {
				f := faults[0]
				faults = faults[1:]
				if v.live == nil || !reaches(f, &v.held) {
					if _, err := a.ApplyFault(f); err != nil {
						t.Fatalf("%v: %v", f, err)
					}
				}
			}
		}
		return nil
	}
}

// victim is the circuit a campaign stream spares: live is the circuit,
// held a copy of what it held before the plant.
type victim struct {
	live *route.Circuit
	held route.Circuit
}

// reaches reports whether fault f could tear c down or touch its
// endpoint tiles.
func reaches(f chaos.Fault, c *route.Circuit) bool {
	switch f.Class {
	case chaos.ChipFailure, chaos.LaserDeath, chaos.MZIStuck:
		return f.Chip == c.A || f.Chip == c.B
	case chaos.WaveguideLoss:
		for _, s := range c.Segments {
			if s.Wafer == f.Wafer && (s.Ref.Orient == wafer.Horizontal) == f.Horizontal &&
				s.Ref.Lane == f.Lane && s.Ref.Span.Lo <= f.Pos && f.Pos <= s.Ref.Span.Hi {
				return true
			}
		}
	case chaos.FiberCut:
		for _, fb := range c.Fibers {
			if fb.Trunk == f.Trunk && fb.Row == f.Row {
				return true
			}
		}
	}
	return false
}

// latencyModes are the auditors the harness compares.
var latencyModes = []string{"paranoid", "sampled, all full", "sampled, delta"}

// detectionLag runs one seeded campaign stream under the given
// auditor and, at a mutation past a seeded one, plants
// latencyPlants[plant] as part of that mutation, before its audit
// hook runs: on the circuit the mutation established (touched), or on
// a live circuit established before the last DefaultStride boundary
// (untouched). It returns the mutations from the planting one to the
// first whose audit reports a violation (0 when its own audit does),
// and the share of sampled audits that were full passes.
func detectionLag(t *testing.T, seed uint64, plant int, touched bool, mode string) (lag int, fullShare float64) {
	t.Helper()
	var v victim
	a, step := campaignStream(t, seed, &v)
	var aud *invariant.Auditor
	switch mode {
	case "paranoid":
		aud = invariant.Attach(a, invariant.Paranoid)
	case "sampled, delta":
		aud = invariant.AttachCounting(a, invariant.Sampled)
	default:
		aud = invariant.Attach(a, invariant.Off)
	}
	pl := latencyPlants[plant]
	r := rng.New(seed).Split(pl.sabotage)
	plantFrom := 4*invariant.DefaultStride + r.Intn(32*invariant.DefaultStride)
	n, lastID, boundaryID, planted, reported := 0, -1, -1, -1, -1
	a.SetAuditHook(func(op string) {
		n++
		cs := a.Circuits()
		maxID := -1
		if len(cs) > 0 {
			maxID = cs[len(cs)-1].ID
		}
		if planted < 0 && n >= plantFrom {
			var target *route.Circuit
			if touched && op == "establish" && maxID > lastID {
				target = cs[len(cs)-1]
			} else if !touched {
				var old []*route.Circuit
				for _, c := range cs {
					if c.ID <= boundaryID && pl.needs(c) {
						old = append(old, c)
					}
				}
				if len(old) > 0 {
					target = old[r.Intn(len(old))]
				}
			}
			if target != nil && pl.needs(target) {
				held := *target
				held.Segments, held.Fibers = slices.Clone(target.Segments), slices.Clone(target.Fibers)
				if plantOn(t, a, plant, target, r) {
					v, planted = victim{live: target, held: held}, n
				}
			}
		}
		lastID = maxID
		switch mode {
		case "sampled, all full":
			if n%invariant.DefaultStride == 0 {
				aud.Audit(op)
			}
		default:
			aud.MutatedReport(op)
		}
		if n%invariant.DefaultStride == 0 {
			boundaryID = maxID
		}
		if aud.Count() > 0 && reported < 0 {
			if planted < 0 {
				t.Fatalf("seed %d: %s reports %v before the plant", seed, mode, aud.Violations())
			}
			reported = n
		}
	})
	for i := 0; reported < 0; i++ {
		if planted >= 0 && n-planted > 32*invariant.DefaultStride || i > 100000 {
			t.Fatalf("seed %d: %s never reported %q (%s), planted at mutation %d of %d",
				seed, mode, pl.sabotage, placement(touched), planted, n)
		}
		step(i)
	}
	full := 1.0
	if mode == "sampled, delta" {
		full = float64(aud.FullPasses()) / float64(aud.Audits())
	}
	return reported - planted, full
}

// plantOn applies latencyPlants[plant] to c and reports whether it
// took: the sabotaged invariant now fails. A flipped switch is pinned,
// so no later establish through its tile programs it back; a stuck
// switch refuses the flip, and the plant does not take.
func plantOn(t *testing.T, a *route.Allocator, plant int, c *route.Circuit, r *rng.Rand) bool {
	t.Helper()
	ses := a.AppendCircuitSwitches(nil, c)
	sabotageNamed(latencyPlants[plant].sabotage).apply(r.Split("plant"), a, []*route.Circuit{c})
	for _, se := range ses {
		if se.Tile.Switches[se.Switch].Port() != se.Port {
			if err := se.Tile.FailSwitch(se.Switch); err != nil {
				t.Fatal(err)
			}
		}
	}
	return len(invariant.Registry()[plant].Check(a)) > 0
}

func placement(touched bool) string {
	if touched {
		return "touched"
	}
	return "untouched"
}

// TestDetectionLatency plants each invariant's corruption on seeded
// campaign streams, once on the circuit the plant's mutation
// established and once on an untouched live circuit, and measures
// mutations to the first report under each auditor. Delta audits must
// catch a corruption of the circuits they check as fast as the former
// Sampled auditor (within DefaultStride), and any other within one
// full-pass cycle plus a stride. Run with -v for the table.
func TestDetectionLatency(t *testing.T) {
	const seeds = 8
	lags := map[string][]int{}
	var fullShares []float64
	for seed := uint64(1); seed <= seeds; seed++ {
		for plant := range latencyPlants {
			for _, touched := range []bool{true, false} {
				for _, mode := range latencyModes {
					lag, share := detectionLag(t, seed, plant, touched, mode)
					key := mode + "/" + placement(touched)
					lags[key] = append(lags[key], lag)
					if mode == "sampled, delta" {
						fullShares = append(fullShares, share)
					}
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mutations to first report, %d seeds x %d invariants per cell: median / worst\n", seeds, len(latencyPlants))
	fmt.Fprintf(&b, "%-18s %-16s %-16s\n", "auditor", "touched", "untouched")
	for _, mode := range latencyModes {
		fmt.Fprintf(&b, "%-18s", mode)
		for _, p := range []string{"touched", "untouched"} {
			ls := lags[mode+"/"+p]
			slices.Sort(ls)
			fmt.Fprintf(&b, " %-16s", fmt.Sprintf("%d / %d", ls[len(ls)/2], ls[len(ls)-1]))
		}
		b.WriteString("\n")
	}
	slices.Sort(fullShares)
	fmt.Fprintf(&b, "delta auditor: median share of sampled audits that were full passes %.3f", fullShares[len(fullShares)/2])
	t.Log(b.String())
	if worst := slices.Max(lags["sampled, delta/touched"]); worst > invariant.DefaultStride {
		t.Errorf("delta audits report a touched corruption after %d mutations, want at most %d", worst, invariant.DefaultStride)
	}
	if worst, bound := slices.Max(lags["sampled, delta/untouched"]), 16*invariant.DefaultStride+invariant.DefaultStride; worst > bound {
		t.Errorf("delta audits report an untouched corruption after %d mutations, want at most %d", worst, bound)
	}
}
