package evloop

import (
	"bytes"
	"container/heap"
	"errors"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// refEvent and refQueue are the boxed container/heap queue the fleet
// soak ran on before Queue: the reference the differential test
// holds Queue to, slot for slot.
type refEvent struct {
	at  unit.Seconds
	seq int
	p   int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at < q[j].at {
		return true
	}
	if q[j].at < q[i].at {
		return false
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

func sameLayout(q *Queue[int], ref refQueue) bool {
	if len(q.items) != len(ref) {
		return false
	}
	for i, it := range q.items {
		if it.at != ref[i].at || it.seq != ref[i].seq || it.p != ref[i].p {
			return false
		}
	}
	return true
}

// TestQueueMatchesContainerHeap is a differential property test: over
// 200 seeded trials of random push/pop interleavings, Queue pops the
// same sequence as the container/heap reference and holds the same
// raw (at, seq) array after every operation — the layout a checkpoint
// carries. Coarse times make ties common, so the seq tie-break decides
// often; a fully drained queue comes out in (at, seq) order.
func TestQueueMatchesContainerHeap(t *testing.T) {
	r := rng.New(2026)
	for trial := 0; trial < 200; trial++ {
		var q Queue[int]
		var ref refQueue
		seq := 0
		for op := 0; op < 80; op++ {
			if q.Len() > 0 && r.Intn(3) == 0 {
				at, p := q.Pop()
				want := heap.Pop(&ref).(refEvent)
				if at != want.at || p != want.p {
					t.Fatalf("trial %d op %d: popped (%v, %d), reference (%v, %d)",
						trial, op, at, p, want.at, want.p)
				}
			} else {
				at := unit.Seconds(r.Intn(8))
				q.Push(at, 1000+seq)
				heap.Push(&ref, refEvent{at: at, seq: seq, p: 1000 + seq})
				seq++
			}
			if !sameLayout(&q, ref) {
				t.Fatalf("trial %d op %d: layout %v, reference %v", trial, op, q.items, ref)
			}
			if q.Len() > 0 {
				if at, p := q.Peek(); at != ref[0].at || p != ref[0].p {
					t.Fatalf("trial %d op %d: peek (%v, %d), reference (%v, %d)", trial, op, at, p, ref[0].at, ref[0].p)
				}
			}
		}
		lastAt, lastSeq := unit.Seconds(-1), -1
		for q.Len() > 0 {
			at, p := q.Pop()
			s := p - 1000
			if at < lastAt || (at == lastAt && s < lastSeq) {
				t.Fatalf("trial %d: drained (%v, %d) after (%v, %d)", trial, at, s, lastAt, lastSeq)
			}
			lastAt, lastSeq = at, s
		}
	}
}

func encodeInt(e *snapshot.Encoder, v int) { e.Int(v) }

func decodeInt(d *snapshot.Decoder) (int, error) { return d.Int(), nil }

// TestQueueStateRoundTrip restores a mid-life queue into a fresh one
// and demands identical bytes, then identical pops and pushes.
func TestQueueStateRoundTrip(t *testing.T) {
	r := rng.New(7)
	var q Queue[int]
	for i := 0; i < 50; i++ {
		q.Push(unit.Seconds(r.Intn(10)), i)
		if i%4 == 3 {
			q.Pop()
		}
	}
	var e snapshot.Encoder
	q.EncodeState(&e, encodeInt)

	var back Queue[int]
	back.Push(99, -1) // restore replaces whatever was queued
	d := snapshot.NewDecoder(e.Bytes())
	if err := back.RestoreState(d, decodeInt); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	var again snapshot.Encoder
	back.EncodeState(&again, encodeInt)
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Fatal("restored queue re-encodes differently")
	}
	q.Push(3, 500)
	back.Push(3, 500)
	for q.Len() > 0 {
		a1, p1 := q.Pop()
		a2, p2 := back.Pop()
		if a1 != a2 || p1 != p2 {
			t.Fatalf("restored queue popped (%v, %d), original (%v, %d)", a2, p2, a1, p1)
		}
	}
	if back.Len() != 0 {
		t.Fatalf("restored queue holds %d extra events", back.Len())
	}
}

// TestQueueRestoreRejectsPayload checks a payload decoder's error
// surfaces unchanged.
func TestQueueRestoreRejectsPayload(t *testing.T) {
	var q Queue[int]
	q.Push(1, 1)
	var e snapshot.Encoder
	q.EncodeState(&e, encodeInt)
	bad := errors.New("bad payload")
	err := new(Queue[int]).RestoreState(snapshot.NewDecoder(e.Bytes()), func(d *snapshot.Decoder) (int, error) {
		d.Int()
		return 0, bad
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want the payload decoder's", err)
	}
}

// FuzzQueueRestore feeds hostile bytes to RestoreState. Rejections
// must wrap ErrCorruptSnapshot and never panic; an accepted input must
// re-encode to exactly the same bytes and drain in (at, seq) order.
func FuzzQueueRestore(f *testing.F) {
	var q Queue[int]
	q.Push(2, 7)
	q.Push(1, 8)
	q.Push(1, 9)
	var e snapshot.Encoder
	q.EncodeState(&e, encodeInt)
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue[int]
		d := snapshot.NewDecoder(data)
		err := q.RestoreState(d, decodeInt)
		if err == nil {
			err = d.Finish()
		}
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		var e snapshot.Encoder
		q.EncodeState(&e, encodeInt)
		if !bytes.Equal(e.Bytes(), data) {
			t.Fatalf("accepted %x, re-encoded %x", data, e.Bytes())
		}
		q.Push(0, -1)
		var last entry[int]
		for i := 0; q.Len() > 0; i++ {
			top := q.items[0]
			q.Pop()
			if i > 0 && (top.at < last.at || (top.at == last.at && top.seq < last.seq)) {
				t.Fatalf("popped (%v, %d) after (%v, %d)", top.at, top.seq, last.at, last.seq)
			}
			last = top
		}
	})
}
