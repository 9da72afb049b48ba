package sketch

import (
	"math"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
)

func TestQuantileAccuracy(t *testing.T) {
	// Feed a shuffled permutation of [0, n) so true quantiles are
	// known exactly; the sketch must land within ~2% rank error.
	const n = 100000
	q := NewQuantile(DefaultK, rng.New(3))
	perm := rng.New(4).Perm(n)
	for _, v := range perm {
		q.Add(float64(v))
	}
	if q.Count() != n {
		t.Fatalf("count = %d, want %d", q.Count(), n)
	}
	for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		got := q.Query(phi)
		want := phi * n
		if math.Abs(got-want) > 0.02*n {
			t.Fatalf("quantile %.2f = %.0f, want %.0f ± %.0f", phi, got, want, 0.02*n)
		}
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	q := NewQuantile(0, rng.New(1))
	if v := q.Query(0.5); !math.IsNaN(v) {
		t.Fatalf("empty sketch Query = %v, want NaN", v)
	}
	q.Add(42)
	for _, phi := range []float64{-1, 0, 0.5, 1, 2} {
		if v := q.Query(phi); v != 42 {
			t.Fatalf("single-value Query(%v) = %v, want 42", phi, v)
		}
	}
}

func TestQuantileStateRoundTrip(t *testing.T) {
	full := NewQuantile(64, rng.New(9))
	half := NewQuantile(64, rng.New(9))
	vals := rng.New(10).Perm(20000)
	for _, v := range vals[:12000] {
		full.Add(float64(v))
		half.Add(float64(v))
	}
	var e snapshot.Encoder
	half.EncodeState(&e)

	resumed := NewQuantile(64, rng.New(999))
	d := snapshot.NewDecoder(e.Bytes())
	if err := resumed.RestoreState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, v := range vals[12000:] {
		full.Add(float64(v))
		resumed.Add(float64(v))
	}
	// Resumed and uninterrupted sketches must be bit-identical: same
	// counts, same levels, same future compaction decisions.
	var ef, er snapshot.Encoder
	full.EncodeState(&ef)
	resumed.EncodeState(&er)
	if string(ef.Bytes()) != string(er.Bytes()) {
		t.Fatal("resumed sketch state diverges from uninterrupted run")
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if full.Query(phi) != resumed.Query(phi) {
			t.Fatalf("quantile %.2f diverges: %v vs %v", phi, full.Query(phi), resumed.Query(phi))
		}
	}
}

func TestQuantileMemoryBounded(t *testing.T) {
	// A year of 10-minute samples is ~52k values; the sketch must hold
	// O(k log n) items, not O(n).
	q := NewQuantile(DefaultK, rng.New(11))
	for i := 0; i < 1<<20; i++ {
		q.Add(float64(i))
	}
	var held int
	for _, level := range q.levels {
		held += len(level)
	}
	if held > DefaultK*24 {
		t.Fatalf("sketch holds %d items after 1M adds, want O(k log n) ≤ %d", held, DefaultK*24)
	}
}
