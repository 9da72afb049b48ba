// Package evloop is the deterministic event loop the long-running
// simulators share: a (time, seq) min-heap whose pop order is total,
// and a checkpointed loop that counts event boundaries, encodes a
// snapshot on a fixed cadence and writes it to disk while the
// simulation runs on, and halts at an injected stop. The
// fleet soak and the controller load campaign each keep only their
// own event handlers and state encoding on top of it.
package evloop

import (
	"fmt"
	"math"
	"slices"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// entry is one queued event: its time, its push sequence number, and
// the caller's payload.
type entry[P any] struct {
	at  unit.Seconds
	seq int
	p   P
}

// Queue is a min-heap of payloads ordered by (time, seq). Push stamps
// seq from the queue's own counter, so events due at the same instant
// pop in push order and the order is total. A checkpoint carries the
// raw array, and every golden depends on the pop order, so the layout
// after each operation must match the one container/heap's sift-up
// and sift-down write. Push and Pop sift with a hole instead: each
// level moves one entry into the hole and the sifted entry is written
// once, where the swaps would have left it, so the comparisons and the
// resulting array are container/heap's exactly. The zero value is an
// empty queue.
type Queue[P any] struct {
	items []entry[P]
	next  int
}

// Len returns the number of queued events.
func (q *Queue[P]) Len() int { return len(q.items) }

// Reserve makes room for n more events, so the next n pushes do not
// grow the array. A simulator that knows how many events it seeds its
// queue with calls it once, before pushing them.
func (q *Queue[P]) Reserve(n int) { q.items = slices.Grow(q.items, n) }

// before reports whether x pops before y.
func before[P any](x, y *entry[P]) bool {
	if x.at < y.at {
		return true
	}
	if y.at < x.at {
		return false
	}
	return x.seq < y.seq
}

// Push queues p at time at (container/heap's Push and up).
func (q *Queue[P]) Push(at unit.Seconds, p P) {
	x := entry[P]{at: at, seq: q.next, p: p}
	q.next++
	q.items = append(q.items, x)
	s := q.items
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !before(&x, &s[i]) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = x
}

// Peek returns the earliest event without removing it. The queue must
// not be empty.
func (q *Queue[P]) Peek() (unit.Seconds, P) {
	return q.items[0].at, q.items[0].p
}

// Pop removes and returns the earliest event (container/heap's Pop:
// the last entry replaces the root and sifts down over the shortened
// prefix). The queue must not be empty.
func (q *Queue[P]) Pop() (unit.Seconds, P) {
	s := q.items
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1 // left child; j < 0 after int overflow
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && before(&s[j2], &s[j]) {
			j = j2 // right child
		}
		if !before(&s[j], &x) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	q.items = s[:n]
	return top.at, top.p
}

// EncodeState appends the queue in its raw array layout — the length,
// then (time, seq, payload) per slot, then the next sequence number —
// so the restored queue pops in exactly the original order.
func (q *Queue[P]) EncodeState(e *snapshot.Encoder, enc func(*snapshot.Encoder, P)) {
	e.Len(len(q.items))
	for i := range q.items {
		it := &q.items[i]
		snapshot.Unit(e, it.at)
		e.Int(it.seq)
		enc(e, it.p)
	}
	e.Int(q.next)
}

// RestoreState replaces the queue's contents with state captured by
// EncodeState. dec reads one payload and may reject it. A NaN time, a
// sequence number outside [0, next), or an array that is not a heap
// is corruption.
func (q *Queue[P]) RestoreState(d *snapshot.Decoder, dec func(*snapshot.Decoder) (P, error)) error {
	q.items = q.items[:0]
	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		at := snapshot.DecodeUnit[unit.Seconds](d)
		seq := d.Int()
		p, err := dec(d)
		if err != nil {
			return err
		}
		q.items = append(q.items, entry[P]{at: at, seq: seq, p: p})
	}
	q.next = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	for i, it := range q.items {
		if math.IsNaN(float64(it.at)) {
			return fmt.Errorf("%w: queued event %d at NaN", snapshot.ErrCorruptSnapshot, i)
		}
		if it.seq < 0 || it.seq >= q.next {
			return fmt.Errorf("%w: queued event seq %d outside [0, %d)",
				snapshot.ErrCorruptSnapshot, it.seq, q.next)
		}
		if i > 0 && before(&q.items[i], &q.items[(i-1)/2]) {
			return fmt.Errorf("%w: queued event %d sorts before its heap parent",
				snapshot.ErrCorruptSnapshot, i)
		}
	}
	return nil
}
