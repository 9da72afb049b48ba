package loadgen

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"lightpath/internal/rng"
)

// checkTable compares the table with the map reference: the same open
// sessions in ID order, the window starting at the oldest one, and
// every ID from just below the window to just past next looked up
// alike. With the open counts equal, an open reference session below
// the window would show as a window slot the reference lacks.
func checkTable(t *testing.T, step int, tab *sessionTable, ref map[int]session, next int) {
	t.Helper()
	if tab.next() != next || tab.open != len(ref) {
		t.Fatalf("step %d: next %d, %d open; want %d, %d", step, tab.next(), tab.open, next, len(ref))
	}
	w := tab.window()
	if len(w) > 0 && w[0].phase == phaseClosed {
		t.Fatalf("step %d: window starts at closed session %d", step, tab.first)
	}
	var open []int
	for i := range w {
		if w[i].phase != phaseClosed {
			open = append(open, tab.first+i)
		}
	}
	for i := 1; i < len(open); i++ {
		if open[i] <= open[i-1] {
			t.Fatalf("step %d: window walks %d after %d", step, open[i], open[i-1])
		}
	}
	if len(open) != len(ref) {
		t.Fatalf("step %d: window holds %d open sessions, reference %d", step, len(open), len(ref))
	}
	for id := tab.first - 2; id < next+2; id++ {
		s, ok := tab.get(id)
		want, wok := ref[id]
		if ok != wok || (ok && *s != want) {
			t.Fatalf("step %d: get(%d) = %+v, %v; reference %+v, %v", step, id, s, ok, want, wok)
		}
	}
}

// TestSessionTableMatchesMap drives the table and a map through random
// adds, updates through get and closes — oldest-first runs that trim
// the front, and random picks that leave interior gaps — and demands
// the same contents after every step. Restores rebuild a table from
// the reference with skipTo, as restoreState does.
func TestSessionTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		var tab sessionTable
		ref := map[int]session{}
		next := 0
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(10); {
			case op < 4 || len(ref) == 0:
				s := session{agent: r.Intn(8), a: r.Intn(64), b: r.Intn(64), width: 1 + r.Intn(4), circuit: -1}
				id, p := tab.add(s)
				if id != next || *p != s {
					t.Fatalf("seed %d step %d: add gave %d %+v, want %d %+v", seed, step, id, *p, next, s)
				}
				ref[id] = s
				next++
			case op < 6:
				id := tab.first + r.Intn(len(tab.window()))
				if p, ok := tab.get(id); ok {
					p.phase, p.circuit = phaseOpen, r.Intn(1000)
					ref[id] = *p
				}
			case op < 8:
				// Close the oldest: a front trim.
				id := tab.first
				tab.close(id)
				delete(ref, id)
				if len(ref) > 0 {
					oldest := next
					for id := range ref {
						oldest = min(oldest, id)
					}
					if tab.first != oldest {
						t.Fatalf("seed %d step %d: window starts at %d, oldest open is %d", seed, step, tab.first, oldest)
					}
				}
			case op < 9:
				// Close a random open session: usually an interior gap.
				id := tab.first + r.Intn(len(tab.window()))
				if _, ok := tab.get(id); ok {
					tab.close(id)
					delete(ref, id)
				}
			default:
				var re sessionTable
				for id := 0; id < next; id++ {
					if s, ok := ref[id]; ok {
						re.skipTo(id)
						re.add(s)
					}
				}
				re.skipTo(next)
				tab = re
			}
			checkTable(t, step, &tab, ref, next)
		}
	}
}

// TestSessionsDoNotOutliveAdd holds the table's pointer rule — no
// *session outlives a call that can add a session — over whole
// campaigns: with every add moving the window to a fresh array, a
// pointer kept across an add would read or write a stale copy. The
// campaigns, uninterrupted and killed and resumed, must match the
// ordinary runs field for field.
func TestSessionsDoNotOutliveAdd(t *testing.T) {
	type run struct {
		res *Result
		err error
	}
	campaigns := func() []run {
		var runs []run
		for _, seed := range []uint64{1, 1234} {
			cfg := smallConfig(seed)
			res, err := RunCheckpointed(cfg, CheckpointOptions{})
			runs = append(runs, run{res, err})
			path := filepath.Join(t.TempDir(), "c.ckpt")
			if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, EveryEvents: 300, StopAfterEvents: 700}); !errors.Is(err, ErrStopped) {
				t.Fatalf("seed %d: stop: %v", seed, err)
			}
			res, err = Resume(cfg, CheckpointOptions{Path: path})
			runs = append(runs, run{res, err})
		}
		return runs
	}
	want := campaigns()
	moveOnAdd = true
	t.Cleanup(func() { moveOnAdd = false })
	got := campaigns()
	for i := range want {
		if want[i].err != nil || got[i].err != nil {
			t.Fatalf("run %d: errors %v, %v", i, want[i].err, got[i].err)
		}
		if !reflect.DeepEqual(got[i].res, want[i].res) {
			t.Fatalf("run %d with every add moving the window:\n  got  %+v\n  want %+v", i, got[i].res, want[i].res)
		}
	}
}
