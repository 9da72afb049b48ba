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
// pop in push order and the order is total. The sift-up and sift-down
// steps are container/heap's exactly: a checkpoint carries the raw
// array, and every golden depends on the pop order, so the layout
// after each operation must match the one earlier builds wrote. The
// zero value is an empty queue.
type Queue[P any] struct {
	items []entry[P]
	next  int
}

// Len returns the number of queued events.
func (q *Queue[P]) Len() int { return len(q.items) }

func (q *Queue[P]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	return a.seq < b.seq
}

// Push queues p at time at (container/heap's Push and up).
func (q *Queue[P]) Push(at unit.Seconds, p P) {
	q.items = append(q.items, entry[P]{at: at, seq: q.next, p: p})
	q.next++
	s := q.items
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// Peek returns the earliest event without removing it. The queue must
// not be empty.
func (q *Queue[P]) Peek() (unit.Seconds, P) {
	return q.items[0].at, q.items[0].p
}

// Pop removes and returns the earliest event (container/heap's Pop:
// swap the root to the end, sift the new root down over the shortened
// prefix, take the former root off the end). The queue must not be
// empty.
func (q *Queue[P]) Pop() (unit.Seconds, P) {
	s := q.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	q.items = s[:n]
	return s[n].at, s[n].p
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
		if i > 0 && q.less(i, (i-1)/2) {
			return fmt.Errorf("%w: queued event %d sorts before its heap parent",
				snapshot.ErrCorruptSnapshot, i)
		}
	}
	return nil
}
