package wafer

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
)

// mapLoss is the per-position map the dense loss grid replaced, with
// its bookkeeping, span queries and checkpoint encoding kept verbatim
// as the reference for the differential test below.
type mapLoss struct {
	degraded map[segKey]float64
}

// segKey identifies one tile position of one bus lane.
type segKey struct {
	o    Orient
	lane int
	pos  int
}

func (m *mapLoss) degrade(o Orient, lane, pos int, extraDB float64) {
	if m.degraded == nil {
		m.degraded = make(map[segKey]float64)
	}
	m.degraded[segKey{o: o, lane: lane, pos: pos}] += extraDB
}

func (m *mapLoss) repair(o Orient, lane, pos int) {
	delete(m.degraded, segKey{o: o, lane: lane, pos: pos})
}

func (m *mapLoss) SpanExtraLossDB(o Orient, lane int, span Interval) float64 {
	total := 0.0
	for pos := span.Lo; pos <= span.Hi; pos++ {
		total += m.degraded[segKey{o: o, lane: lane, pos: pos}]
	}
	return total
}

func (m *mapLoss) SpanSevered(o Orient, lane int, span Interval) bool {
	for pos := span.Lo; pos <= span.Hi; pos++ {
		if m.degraded[segKey{o: o, lane: lane, pos: pos}] >= SeveredSegmentDB {
			return true
		}
	}
	return false
}

// encodeState is the former Wafer.encodeState over the map.
func (m *mapLoss) encodeState(e *snapshot.Encoder, w *Wafer) {
	e.Len(len(w.tiles))
	for _, t := range w.tiles {
		t.encodeState(e)
	}
	encodeLanes(e, w.hLanes)
	encodeLanes(e, w.vLanes)
	// Fault-induced degradation, in sorted key order.
	keys := make([]segKey, 0, len(m.degraded))
	for k := range m.degraded {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.o != b.o {
			return a.o < b.o
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.pos < b.pos
	})
	e.Len(len(keys))
	for _, k := range keys {
		e.Bool(k.o == Horizontal)
		e.Int(k.lane)
		e.Int(k.pos)
		e.F64(m.degraded[k])
	}
}

// TestLossGridMatchesMap drives a wafer and the reference map through
// the same seeded degrade/repair sequences (out-of-range positions and
// 0 dB faults included) and compares every query after each step:
// span loss bit for bit and severance over in-range, out-of-range and
// empty spans and lanes of either (or an unknown) orientation; the
// degraded-position count; and the checkpoint bytes, before and after
// a restore and a clone.
func TestLossGridMatchesMap(t *testing.T) {
	cfg := DefaultConfig()
	orients := []Orient{Horizontal, Vertical, 'X'}
	for seed := uint64(1); seed <= 50; seed++ {
		r := rng.New(seed)
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ref mapLoss
		for step := 0; step < 60; step++ {
			o := orients[r.Intn(2)]
			lane, pos := r.Intn(cfg.Cols+2)-1, r.Intn(cfg.Cols+2)-1
			if r.Intn(4) == 0 {
				if w.RepairSegment(o, lane, pos) == nil {
					ref.repair(o, lane, pos)
				}
			} else {
				db := []float64{0, 0.5, 3, SeveredSegmentDB, 25}[r.Intn(5)]
				if w.DegradeSegment(o, lane, pos, db) == nil {
					ref.degrade(o, lane, pos, db)
				}
			}
			if got, want := w.DegradedSegments(), len(ref.degraded); got != want {
				t.Fatalf("seed %d step %d: %d degraded segments, map has %d", seed, step, got, want)
			}
			for q := 0; q < 20; q++ {
				o := orients[r.Intn(len(orients))]
				lane := r.Intn(cfg.Cols+4) - 2
				span := Interval{Lo: r.Intn(cfg.Cols+6) - 3, Hi: r.Intn(cfg.Cols+6) - 3}
				got, want := w.SpanExtraLossDB(o, lane, span), ref.SpanExtraLossDB(o, lane, span)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: %v lane %d span %v loss %v, map %v", seed, o, lane, span, got, want)
				}
				if got, want := w.SpanSevered(o, lane, span), ref.SpanSevered(o, lane, span); got != want {
					t.Fatalf("seed %d: %v lane %d span %v severed %v, map %v", seed, o, lane, span, got, want)
				}
			}
		}
		var got, want snapshot.Encoder
		w.encodeState(&got)
		ref.encodeState(&want, w)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: checkpoint bytes diverge from the map encoding", seed)
		}
		for _, c := range []*Wafer{w.Clone(), mustRestore(t, cfg, got.Bytes())} {
			var again snapshot.Encoder
			c.encodeState(&again)
			if !bytes.Equal(again.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d: clone or restore re-encodes differently", seed)
			}
		}
	}
}

func mustRestore(t *testing.T, cfg Config, b []byte) *Wafer {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.restoreState(snapshot.NewDecoder(b)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRestoreRejectsOffGridDegradation: a checkpoint naming a lane
// position the wafer does not have is corrupt — the grid has no cell
// to put it in.
func TestRestoreRejectsOffGridDegradation(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DegradeSegment(Vertical, 2, 3, 1.5); err != nil {
		t.Fatal(err)
	}
	var e, pos snapshot.Encoder
	w.encodeState(&e)
	// The payload ends with the lone record's fixed-width pos and dB:
	// point pos off the 4-row vertical lane.
	b := e.Bytes()
	pos.Int(9)
	copy(b[len(b)-16:], pos.Bytes())
	fresh, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.restoreState(snapshot.NewDecoder(b)); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("off-grid degradation restored with error %v, want ErrCorruptSnapshot", err)
	}
}
