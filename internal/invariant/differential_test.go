package invariant_test

import (
	"math"
	"reflect"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// The differential tests hold the one-walk audit to the six separate
// checks it replaced (reference_test.go): seeded allocator states,
// built through the public establish/release/fault API and then
// sabotaged behind the allocator's back, must produce deep-equal
// violations from both.

// randomState drives a fresh allocator through seeded establishes,
// releases and chaos faults.
func randomState(t testing.TB, seed uint64, steps int) *route.Allocator {
	t.Helper()
	a, step := randomStream(t, seed, [3]int{6, 2, 2})
	for i := 0; i < steps; i++ {
		step(i)
	}
	return a
}

// randomStream builds randomState's allocator and returns it with the
// function that takes step i of its stream: an establish, a release or
// the next chaos fault, drawn with the given weights in that order.
func randomStream(t testing.TB, seed uint64, weights [3]int) (*route.Allocator, func(i int)) {
	t.Helper()
	r := rng.New(seed)
	topo := wafer.Chain
	if r.Intn(2) == 0 {
		topo = wafer.RingTopology
	}
	rack, err := wafer.NewRackTopology(wafer.DefaultConfig(), 2+r.Intn(2), topo)
	if err != nil {
		t.Fatal(err)
	}
	a := route.NewAllocator(rack, r.Split("loss"))
	a.CheckBudget = r.Intn(2) == 0
	a.PackFibers = r.Intn(2) == 0
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
	return a, func(i int) {
		switch x := r.Intn(weights[0] + weights[1] + weights[2]); {
		case x < weights[0]:
			req := route.Request{A: r.Intn(rack.NumChips()), B: r.Intn(rack.NumChips()), Width: 1 + r.Intn(4)}
			if req.A != req.B {
				_, _ = a.Establish(req, unit.Seconds(i)*unit.Microsecond)
			}
		case x < weights[0]+weights[1]:
			if cs := a.Circuits(); len(cs) > 0 {
				a.Release(cs[r.Intn(len(cs))])
			}
		default:
			if len(faults) > 0 {
				if _, err := a.ApplyFault(faults[0]); err != nil {
					t.Fatalf("%v: %v", faults[0], err)
				}
				faults = faults[1:]
			}
		}
	}
}

// wideValues are the out-of-range field values the sabotages plant:
// small negatives pack at a shifted offset, the extremes overflow any
// 64-bit layout and force the comparator fallback.
var wideValues = []int{-1, -7, 1 << 40, -(1 << 40), 1 << 62, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1}

func wide(r *rng.Rand) int { return wideValues[r.Intn(len(wideValues))] }

// saneSegments lists the segments whose wafer, lane and span lie on the
// rack, so a copy can be planted at the end of another circuit's path
// without the switch-consistency reconstruction leaving the wafer grid.
func saneSegments(a *route.Allocator, cs []*route.Circuit) []route.Segment {
	rack := a.Rack()
	cfg := rack.Config()
	var out []route.Segment
	for _, c := range cs {
		for _, s := range c.Segments {
			lanes, positions := cfg.Rows, cfg.Cols
			if s.Ref.Orient == wafer.Vertical {
				lanes, positions = cfg.Cols, cfg.Rows
			} else if s.Ref.Orient != wafer.Horizontal {
				continue
			}
			if s.Wafer >= 0 && s.Wafer < rack.NumWafers() && s.Ref.Lane >= 0 && s.Ref.Lane < lanes &&
				s.Ref.Span.Lo >= 0 && s.Ref.Span.Hi < positions && s.Ref.Span.Lo <= s.Ref.Span.Hi {
				out = append(out, s)
			}
		}
	}
	return out
}

// sabotage is one corruption planted behind the allocator's back.
// auditSafe marks the ones every other registered check tolerates; the
// rest (a wafer index off the rack) would make those checks index out
// of range, so states carrying them are compared on the disjointness
// check alone.
type sabotage struct {
	name      string
	auditSafe bool
	apply     func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit)
}

// withSegment runs fn on a random circuit's random segment, if any.
func withSegment(r *rng.Rand, cs []*route.Circuit, first bool, fn func(s *route.Segment)) {
	var holders []*route.Circuit
	for _, c := range cs {
		if len(c.Segments) > 0 {
			holders = append(holders, c)
		}
	}
	if len(holders) == 0 {
		return
	}
	c := holders[r.Intn(len(holders))]
	i := 0
	if !first {
		i = r.Intn(len(c.Segments))
	}
	fn(&c.Segments[i])
}

var sabotages = []sabotage{
	{"overlapping span", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		sane := saneSegments(a, cs)
		if len(sane) == 0 {
			return
		}
		s := sane[r.Intn(len(sane))]
		s.Ref.Span.Lo += r.Intn(s.Ref.Span.Hi - s.Ref.Span.Lo + 1)
		s.Ref.Span.Hi = s.Ref.Span.Lo + r.Intn(s.Ref.Span.Hi-s.Ref.Span.Lo+1)
		c := cs[r.Intn(len(cs))]
		c.Segments = append(c.Segments, s)
	}},
	{"exact span claimed twice", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		if sane := saneSegments(a, cs); len(sane) > 0 {
			c := cs[r.Intn(len(cs))]
			c.Segments = append(c.Segments, sane[r.Intn(len(sane))])
		}
	}},
	{"duplicate fiber", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		var fibers []wafer.FiberRef
		for _, c := range cs {
			fibers = append(fibers, c.Fibers...)
		}
		if len(fibers) > 0 {
			c := cs[r.Intn(len(cs))]
			c.Fibers = append(c.Fibers, fibers[r.Intn(len(fibers))])
		}
	}},
	{"zero width", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		cs[r.Intn(len(cs))].Width = -r.Intn(2)
	}},
	{"inverted span", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		// Both ends stay on the lane: only the order breaks.
		withSegment(r, cs, false, func(s *route.Segment) {
			if sp := &s.Ref.Span; sp.Lo < sp.Hi {
				sp.Lo, sp.Hi = sp.Hi, sp.Lo
			} else if sp.Lo > 0 {
				sp.Hi = sp.Lo - 1
			}
		})
	}},
	{"wide bus", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		withSegment(r, cs, false, func(s *route.Segment) { s.Ref.Bus = wide(r) })
	}},
	// A path's first segment contributes only its wafer and lane to the
	// switch reconstruction (clamped into the next span), so its lane,
	// span and orientation can take any value.
	{"wide lane", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		withSegment(r, cs, true, func(s *route.Segment) { s.Ref.Lane = wide(r) })
	}},
	{"wide span", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		withSegment(r, cs, true, func(s *route.Segment) { s.Ref.Span = wafer.Interval{Lo: wide(r), Hi: wide(r)} })
	}},
	{"unknown orientation", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		withSegment(r, cs, true, func(s *route.Segment) { s.Ref.Orient = wafer.Orient(r.Intn(256)) })
	}},
	{"wide fiber", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		for _, c := range cs {
			if len(c.Fibers) > 0 {
				f := &c.Fibers[r.Intn(len(c.Fibers))]
				switch r.Intn(3) {
				case 0:
					f.Trunk = wide(r)
				case 1:
					f.Row = wide(r)
				default:
					f.Fiber = wide(r)
				}
				return
			}
		}
	}},
	// The allocator keeps its table in ID order, so IDs are remapped
	// monotonically: spread over a wide (possibly negative) range.
	{"wide IDs", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		lo := []int{math.MinInt, -(1 << 40), -7}[r.Intn(3)]
		hi := []int{math.MaxInt, 1 << 62, 1 << 40}[r.Intn(3)]
		step := (uint64(hi) - uint64(lo)) / uint64(len(cs))
		for k, c := range cs {
			c.ID = int(uint64(lo) + uint64(k)*step)
		}
	}},
	{"wide wafer", false, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		withSegment(r, cs, false, func(s *route.Segment) { s.Wafer = wide(r) })
	}},
	// Each sabotage below breaks one of the five invariants besides
	// disjointness. They sit after the ones above so the committed fuzz
	// corpus keeps selecting what its file names say.
	{"span dropped from the lane occupancy", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		rack := a.Rack()
		var held []route.Segment
		for _, c := range cs {
			for _, s := range c.Segments {
				if s.Wafer >= 0 && s.Wafer < rack.NumWafers() && rack.Wafer(s.Wafer).BusSpanAllocated(s.Ref) {
					held = append(held, s)
				}
			}
		}
		if len(held) > 0 {
			s := held[r.Intn(len(held))]
			rack.Wafer(s.Wafer).FreeBus(s.Ref)
		}
	}},
	{"dropped fiber", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		var holders []*route.Circuit
		for _, c := range cs {
			if len(c.Fibers) > 0 {
				holders = append(holders, c)
			}
		}
		if len(holders) > 0 {
			c := holders[r.Intn(len(holders))]
			i := r.Intn(len(c.Fibers))
			c.Fibers = append(c.Fibers[:i:i], c.Fibers[i+1:]...)
		}
	}},
	{"width changed", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		c := cs[r.Intn(len(cs))]
		c.Width = max(c.Width, 0) + 1 + r.Intn(3)
	}},
	{"ready time shifted", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		cs[r.Intn(len(cs))].ReadyAt += unit.Seconds(1+r.Intn(100)) * unit.Microsecond
	}},
	{"switch flipped", true, func(r *rng.Rand, a *route.Allocator, cs []*route.Circuit) {
		ses := a.CircuitSwitches(cs[r.Intn(len(cs))])
		if len(ses) == 0 {
			return
		}
		se := ses[r.Intn(len(ses))]
		// A stuck switch refuses; the state then stays consistent.
		_ = se.Tile.Switches[se.Switch].Program((se.Port+1+r.Intn(wafer.SwitchDegree-1))%wafer.SwitchDegree, 0)
	}},
}

// unspecifiedTie reports whether one circuit holds two segments on the
// same bus that start at the same position but end at different ones.
// The comparator sort left such ties in whatever order its algorithm
// produced, which the sweep's output can depend on, so there is no
// reference answer; the packed keys order them by end
// (TestPackedSweepOrdersTiesByEnd pins that).
func unspecifiedTie(cs []*route.Circuit) bool {
	for _, c := range cs {
		for i, s := range c.Segments {
			for _, t := range c.Segments[i+1:] {
				if s.Wafer == t.Wafer && s.Ref.Orient == t.Ref.Orient && s.Ref.Lane == t.Ref.Lane &&
					s.Ref.Bus == t.Ref.Bus && s.Ref.Span.Lo == t.Ref.Span.Lo && s.Ref.Span.Hi != t.Ref.Span.Hi {
					return true
				}
			}
		}
	}
	return false
}

// outcome classifies one differential comparison. reporting marks the
// registered invariants (by registry position) the reference found
// violated; only disjointness is compared when the audit is not.
type outcome struct {
	compared, fullAudit, fallback, violating bool
	reporting                                []bool
}

// compareWithReference sabotages a with the given sabotage indices and
// compares the packed sweep against the reference: the disjointness
// check always, and the full audit when every sabotage is audit-safe.
func compareWithReference(t *testing.T, seed uint64, a *route.Allocator, picks []int) outcome {
	t.Helper()
	cs := a.Circuits()
	if len(cs) == 0 {
		return outcome{}
	}
	safe := true
	for i, p := range picks {
		sb := sabotages[p%len(sabotages)]
		sb.apply(rng.New(seed).Split(sb.name).Split(string(rune('a'+i))), a, cs)
		safe = safe && sb.auditSafe
	}
	if unspecifiedTie(cs) {
		return outcome{}
	}
	var o outcome
	o.compared = true
	got, want := invariant.Registry()[0].Check(a), referenceDisjointness(a)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d sabotages %v: disjointness\n got %q\nwant %q", seed, picks, got, want)
	}
	o.violating = len(want) > 0
	o.reporting = make([]bool, len(invariant.Registry()))
	o.reporting[0] = o.violating
	segs, fibs := invariant.PackedSweep(a)
	o.fallback = !segs || !fibs
	if safe {
		o.fullAudit = true
		aud := invariant.Attach(a, invariant.Off)
		want := referenceAudit(a, "differential")
		if got := aud.Audit("differential"); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d sabotages %v: audit\n got %v\nwant %v", seed, picks, got, want)
		}
		for i, inv := range invariant.Registry() {
			got, want := inv.Check(a), referenceChecks[i](a, &checkCtx{circuits: a.Circuits()})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d sabotages %v: %s\n got %q\nwant %q", seed, picks, inv.Name, got, want)
			}
			o.reporting[i] = len(want) > 0
		}
	}
	return o
}

// TestAuditMatchesReference compares Auditor.Audit and every
// registered Check with the reference on hundreds of seeded states:
// clean ones, and ones carrying one to four sabotages, covering both
// the packed path and the comparator fallback, and each registered
// invariant reporting violations in at least 20 compared states.
func TestAuditMatchesReference(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	var full, disjoint, fallback, packedViolating int
	reporting := make([]int, len(invariant.Registry()))
	for seed := uint64(1); seed <= 400; seed++ {
		r := rng.New(seed).Split("picks")
		picks := make([]int, r.Intn(5))
		for i := range picks {
			picks[i] = r.Intn(len(sabotages))
		}
		o := compareWithReference(t, seed, randomState(t, seed, 30+r.Intn(50)), picks)
		if !o.compared {
			continue
		}
		disjoint++
		if o.fullAudit {
			full++
		}
		if o.fallback {
			fallback++
		} else if o.violating {
			packedViolating++
		}
		for i, hit := range o.reporting {
			if hit {
				reporting[i]++
			}
		}
	}
	t.Logf("compared %d states (%d full audits): %d on the fallback, %d packed with disjointness violations; states reporting each invariant: %v",
		disjoint, full, fallback, packedViolating, reporting)
	if full < 200 || fallback < 20 || packedViolating < 50 {
		t.Fatalf("coverage too thin: %d full audits (want 200), %d on the fallback (want 20), %d packed violating (want 50)",
			full, fallback, packedViolating)
	}
	for i, inv := range invariant.Registry() {
		if reporting[i] < 20 {
			t.Errorf("coverage too thin: %s reports violations in %d compared states, want 20", inv.Name, reporting[i])
		}
	}
}

// FuzzDisjointness builds a seeded allocator state, applies the
// sabotages the fuzz bytes select, and demands the packed sweep agree
// with the reference. The committed corpus under testdata/fuzz runs in
// normal test mode.
func FuzzDisjointness(f *testing.F) {
	f.Add(uint64(1), []byte{0, 2})
	f.Add(uint64(2024), []byte{5, 10, 1})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		t.Cleanup(invariant.ResetGlobal)
		if len(ops) > 8 {
			ops = ops[:8]
		}
		picks := make([]int, len(ops))
		for i, op := range ops {
			picks[i] = int(op)
		}
		compareWithReference(t, seed, randomState(t, seed, 40), picks)
	})
}
