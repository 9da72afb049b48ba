// Package sketch provides bounded-memory streaming summaries for
// long-horizon simulations: a fixed-capacity reservoir sample and a
// mergeable KLL-style quantile sketch. Both are deterministic — their
// replacement and compaction decisions draw from an injected rng
// stream, never from Go runtime randomness — and both expose their
// state for checkpointing, so a killed run resumes producing exactly
// the summary the uninterrupted run would have. A year-long fleet
// soak that would otherwise accumulate O(horizon/SampleEvery) sample
// rows holds a few kilobytes instead.
package sketch

import (
	"fmt"
	"math"
	"sort"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
)

// Reservoir maintains a uniform sample of fixed capacity over a
// stream of unknown length (Vitter's Algorithm R). The first capacity
// items are kept verbatim, so short streams are retained exactly; a
// longer stream ends with each seen item equally likely to be in the
// sample.
type Reservoir[T any] struct {
	capacity int
	seen     uint64
	items    []T
	r        *rng.Rand
}

// NewReservoir returns a reservoir holding at most capacity items,
// using r for replacement decisions. It panics if capacity <= 0 or r
// is nil — both are construction bugs, not data errors.
func NewReservoir[T any](capacity int, r *rng.Rand) *Reservoir[T] {
	if capacity <= 0 {
		panic("sketch: reservoir capacity must be positive")
	}
	if r == nil {
		panic("sketch: reservoir needs an rng stream")
	}
	return &Reservoir[T]{capacity: capacity, r: r}
}

// Add offers one item to the reservoir.
func (s *Reservoir[T]) Add(v T) {
	s.seen++
	if len(s.items) < s.capacity {
		s.items = append(s.items, v)
		return
	}
	if j := s.r.Intn(int(s.seen)); j < s.capacity {
		s.items[j] = v
	}
}

// Items returns a copy of the current sample. Until the stream has
// offered more than capacity items they are in arrival order; after
// that, slot order is arbitrary and callers needing order must sort
// by their own key.
func (s *Reservoir[T]) Items() []T {
	return append([]T(nil), s.items...)
}

// EncodeState appends the reservoir's state — count, items, rng
// position — to the encoder. Capacity is configuration and is not
// serialized; the restoring side constructs with the same capacity.
func (s *Reservoir[T]) EncodeState(e *snapshot.Encoder, enc func(*snapshot.Encoder, T)) {
	e.U64(s.seen)
	for _, w := range s.r.State() {
		e.U64(w)
	}
	e.Len(len(s.items))
	for _, v := range s.items {
		enc(e, v)
	}
}

// RestoreState replays state captured by EncodeState into a freshly
// constructed reservoir of the same capacity.
func (s *Reservoir[T]) RestoreState(d *snapshot.Decoder, dec func(*snapshot.Decoder) T) error {
	s.seen = d.U64()
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	s.r.SetState(st)
	n := d.Len()
	if n > s.capacity {
		return fmt.Errorf("%w: reservoir snapshot has %d items, capacity %d",
			snapshot.ErrCorruptSnapshot, n, s.capacity)
	}
	s.items = s.items[:0]
	for i := 0; i < n; i++ {
		s.items = append(s.items, dec(d))
	}
	return d.Err()
}

// Quantile is a KLL-style streaming quantile sketch: a hierarchy of
// levels where an item at level h stands for 2^h stream items. When a
// level fills it is compacted — sorted, then every other item
// promoted to the next level, the survivors' offset chosen by the
// injected rng stream so the estimate is unbiased yet reproducible.
// Memory is O(k · log(n/k)); error concentrates around rank ±n/k.
// Sketches built with the same k merge losslessly in summary form.
type Quantile struct {
	k      int
	count  uint64
	levels [][]float64
	r      *rng.Rand
}

// DefaultK is a level capacity giving ~0.5% rank error, a few
// kilobytes total for a year of samples.
const DefaultK = 200

// NewQuantile returns a sketch with level capacity k (DefaultK if
// k <= 0), using r for compaction offsets. It panics if r is nil.
func NewQuantile(k int, r *rng.Rand) *Quantile {
	if k <= 0 {
		k = DefaultK
	}
	if r == nil {
		panic("sketch: quantile sketch needs an rng stream")
	}
	return &Quantile{k: k, r: r}
}

// Add offers one value to the sketch.
func (q *Quantile) Add(v float64) {
	q.count++
	if len(q.levels) == 0 {
		q.levels = append(q.levels, make([]float64, 0, q.k))
	}
	q.levels[0] = append(q.levels[0], v)
	q.compactFrom(0)
}

// Count returns how many values the sketch has absorbed.
func (q *Quantile) Count() uint64 { return q.count }

// compactFrom cascades compaction upward from level h while any level
// is at capacity.
func (q *Quantile) compactFrom(h int) {
	for ; h < len(q.levels) && len(q.levels[h]) >= q.k; h++ {
		level := q.levels[h]
		sort.Float64s(level)
		// Compact an even count; an odd straggler (the maximum after
		// sorting) stays behind at this level with its weight intact.
		m := len(level) &^ 1
		offset := int(q.r.Uint64() & 1)
		if h+1 == len(q.levels) {
			q.levels = append(q.levels, make([]float64, 0, q.k))
		}
		for i := offset; i < m; i += 2 {
			q.levels[h+1] = append(q.levels[h+1], level[i])
		}
		rest := level[:0]
		if m < len(level) {
			rest = append(rest, level[m])
		}
		q.levels[h] = rest
	}
}

// Query returns an estimate of the phi-quantile (phi in [0, 1]) of
// everything Added so far, or NaN for an empty sketch.
func (q *Quantile) Query(phi float64) float64 {
	type weighted struct {
		v float64
		w uint64
	}
	var items []weighted
	var total uint64
	for h, level := range q.levels {
		w := uint64(1) << uint(h)
		for _, v := range level {
			items = append(items, weighted{v, w})
			total += w
		}
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v < items[j].v
		}
		return items[i].w < items[j].w
	})
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	target := uint64(phi * float64(total-1))
	var cum uint64
	for _, it := range items {
		cum += it.w
		if cum > target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// EncodeState appends the sketch's state — count, levels, rng
// position — to the encoder. k is configuration and is not
// serialized.
func (q *Quantile) EncodeState(e *snapshot.Encoder) {
	e.U64(q.count)
	for _, w := range q.r.State() {
		e.U64(w)
	}
	e.Len(len(q.levels))
	for _, level := range q.levels {
		e.Len(len(level))
		for _, v := range level {
			e.F64(v)
		}
	}
}

// RestoreState replays state captured by EncodeState into a freshly
// constructed sketch of the same k.
func (q *Quantile) RestoreState(d *snapshot.Decoder) error {
	q.count = d.U64()
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	q.r.SetState(st)
	n := d.Len()
	q.levels = q.levels[:0]
	for h := 0; h < n; h++ {
		m := d.Len()
		if m > q.k {
			return fmt.Errorf("%w: quantile level %d has %d items, capacity %d",
				snapshot.ErrCorruptSnapshot, h, m, q.k)
		}
		level := make([]float64, 0, q.k)
		for i := 0; i < m; i++ {
			level = append(level, d.F64())
		}
		q.levels = append(q.levels, level)
	}
	return d.Err()
}
