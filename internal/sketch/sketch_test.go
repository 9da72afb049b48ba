package sketch

import (
	"errors"
	"math"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
)

func TestReservoirKeepsShortStreamsExactly(t *testing.T) {
	s := NewReservoir[int](16, rng.New(1))
	for i := 0; i < 16; i++ {
		s.Add(i)
	}
	items := s.Items()
	for i, v := range items {
		if v != i {
			t.Fatalf("items[%d] = %d, want %d (short streams must be exact)", i, v, i)
		}
	}
}

func TestReservoirIsUniform(t *testing.T) {
	// Each of 1000 stream items should land in a 100-slot reservoir
	// with probability 1/10; averaged over many trials the hit count
	// per item is flat. Check the first/last deciles don't diverge —
	// Algorithm R's classic failure mode is recency bias.
	const n, k, trials = 1000, 100, 200
	hits := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s := NewReservoir[int](k, rng.New(uint64(trial)))
		for i := 0; i < n; i++ {
			s.Add(i)
		}
		for _, v := range s.Items() {
			hits[v]++
		}
	}
	var early, late int
	for i := 0; i < n/10; i++ {
		early += hits[i]
		late += hits[n-1-i]
	}
	expect := trials * k / 10
	for name, got := range map[string]int{"early": early, "late": late} {
		if got < expect*8/10 || got > expect*12/10 {
			t.Fatalf("%s decile hit count %d, want ~%d", name, got, expect)
		}
	}
}

func TestReservoirDeterministic(t *testing.T) {
	run := func() []int {
		s := NewReservoir[int](32, rng.New(7))
		for i := 0; i < 5000; i++ {
			s.Add(i)
		}
		return s.Items()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different sample at slot %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestReservoirStateRoundTrip(t *testing.T) {
	// Kill at item 3000 of 5000, restore, continue: must match the
	// uninterrupted run exactly, slot for slot.
	full := NewReservoir[int](32, rng.New(7))
	half := NewReservoir[int](32, rng.New(7))
	for i := 0; i < 3000; i++ {
		full.Add(i)
		half.Add(i)
	}
	var e snapshot.Encoder
	half.EncodeState(&e, func(e *snapshot.Encoder, v int) { e.Int(v) })

	resumed := NewReservoir[int](32, rng.New(999)) // wrong seed on purpose
	d := snapshot.NewDecoder(e.Bytes())
	if err := resumed.RestoreState(d, func(d *snapshot.Decoder) int { return d.Int() }); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := 3000; i < 5000; i++ {
		full.Add(i)
		resumed.Add(i)
	}
	if full.seen != resumed.seen {
		t.Fatalf("seen diverges: %d vs %d", full.seen, resumed.seen)
	}
	f, r := full.Items(), resumed.Items()
	for i := range f {
		if f[i] != r[i] {
			t.Fatalf("slot %d diverges after resume: %d vs %d", i, f[i], r[i])
		}
	}
}

func TestReservoirRestoreRejectsOverCapacity(t *testing.T) {
	big := NewReservoir[int](64, rng.New(1))
	for i := 0; i < 64; i++ {
		big.Add(i)
	}
	var e snapshot.Encoder
	big.EncodeState(&e, func(e *snapshot.Encoder, v int) { e.Int(v) })
	small := NewReservoir[int](8, rng.New(1))
	err := small.RestoreState(snapshot.NewDecoder(e.Bytes()), func(d *snapshot.Decoder) int { return d.Int() })
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}

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
