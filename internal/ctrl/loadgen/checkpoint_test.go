package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightpath/internal/snapshot"
)

// restoredAt runs smallConfig(1234) to the given event boundary and
// returns a campaign restored from the checkpoint written there.
func restoredAt(t *testing.T, stopAt uint64) (Config, *campaign) {
	t.Helper()
	cfg := smallConfig(1234)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := RunCheckpointed(cfg, CheckpointOptions{Path: path, EveryEvents: stopAt, StopAfterEvents: stopAt}); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := snapshot.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.restoreState(snapshot.NewDecoder(payload)); err != nil {
		t.Fatal(err)
	}
	return cfg, c
}

// TestRestoreRefusesSharedCircuit crafts a checkpoint in which two
// sessions hold one circuit; resuming it must fail as corrupt rather
// than credit one circuit's goodput to two sessions.
func TestRestoreRefusesSharedCircuit(t *testing.T) {
	cfg, c := restoredAt(t, 500)
	var holders []*session
	w := c.sessions.window()
	for i := range w {
		if s := &w[i]; s.phase == phaseOpen || s.phase == phaseRelease {
			holders = append(holders, s)
		}
	}
	if len(holders) < 2 {
		t.Fatalf("only %d sessions hold a circuit at event 500", len(holders))
	}
	holders[1].circuit = holders[0].circuit
	var e snapshot.Encoder
	c.encodeState(&e)

	fresh, err := build(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.restoreState(snapshot.NewDecoder(e.Bytes()))
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "owned by two sessions") {
		t.Fatalf("restore of two sessions on circuit %d: %v, want ErrCorruptSnapshot naming the shared circuit", holders[0].circuit, err)
	}
}

// TestRestoreRefusesSegmentHeldTwice crafts a checkpoint in which a
// circuit crossing wafers, which runs one lane, bus and span on both,
// has one of those segments moved onto the other's wafer. The circuit
// then holds one span twice while the bus the moved segment held stays
// allocated, so every count still balances; only the disjointness
// check sees it. Before it named a circuit overlapping itself, the
// restore accepted this state, and releasing the circuit panicked in
// the wafer.
func TestRestoreRefusesSegmentHeldTwice(t *testing.T) {
	cfg, c := restoredAt(t, 500)
	moved := false
	for _, circ := range c.srv.Allocator().Circuits() {
		for i, s := range circ.Segments {
			for _, o := range circ.Segments[i+1:] {
				if !moved && s.Wafer != o.Wafer && s.Ref == o.Ref {
					circ.Segments[i].Wafer = o.Wafer
					moved = true
				}
			}
		}
	}
	if !moved {
		t.Fatal("no circuit runs one span on two wafers at event 500")
	}
	var e snapshot.Encoder
	c.encodeState(&e)
	fresh, err := build(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.restoreState(snapshot.NewDecoder(e.Bytes()))
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "holds one bus position or fiber twice") {
		t.Fatalf("restore of a circuit holding a span twice: %v, want ErrCorruptSnapshot naming it", err)
	}
}

// TestDecodeEventRefusesWhatTheEventCannotHold feeds decodeEvent the
// five encoded integers (kind, agent, session, attempt, fault). Each
// valid event must re-encode to its own integers; every integer the
// compact event would have to drop or truncate must be refused as
// corrupt.
func TestDecodeEventRefusesWhatTheEventCannotHold(t *testing.T) {
	_, c := restoredAt(t, 500)
	if len(c.schedule) == 0 {
		t.Fatal("campaign has no faults scheduled")
	}
	maxRetries := c.cfg.Backoff.MaxRetries
	encode := func(f [5]int) []byte {
		var e snapshot.Encoder
		for _, v := range f {
			e.Int(v)
		}
		return e.Bytes()
	}
	for _, f := range [][5]int{
		{int(evArrival), 3, 0, 0, 0},
		{int(evRetry), 0, 7, 1, 0},
		{int(evRetry), 0, 7, maxRetries, 0},
		{int(evRelease), 0, 7, 0, 0},
		{int(evFault), 0, 0, 0, len(c.schedule) - 1},
	} {
		ev, err := c.decodeEvent(snapshot.NewDecoder(encode(f)))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		var e snapshot.Encoder
		encodeEvent(&e, ev)
		if got := string(e.Bytes()); got != string(encode(f)) {
			t.Fatalf("%v decoded to %+v, which does not re-encode to it", f, ev)
		}
	}
	for name, f := range map[string][5]int{
		"unknown kind":             {int(evFault) + 1, 0, 0, 0, 0},
		"negative kind":            {-1, 0, 0, 0, 0},
		"kind past a byte":         {256 + int(evArrival), 3, 0, 0, 0},
		"arrival with a session":   {int(evArrival), 3, 5, 0, 0},
		"arrival with an attempt":  {int(evArrival), 3, 0, 1, 0},
		"arrival with a fault":     {int(evArrival), 3, 0, 0, 1},
		"arrival off the campaign": {int(evArrival), len(c.agents), 0, 0, 0},
		"negative agent":           {int(evArrival), -1, 0, 0, 0},
		"retry with an agent":      {int(evRetry), 2, 7, 1, 0},
		"retry with a fault":       {int(evRetry), 0, 7, 1, 2},
		"negative attempt":         {int(evRetry), 0, 7, -1, 0},
		"attempt past MaxRetries":  {int(evRetry), 0, 7, maxRetries + 1, 0},
		"release with an attempt":  {int(evRelease), 0, 7, 1, 0},
		"release with an agent":    {int(evRelease), 1, 7, 0, 0},
		"fault with a session":     {int(evFault), 0, 4, 0, 0},
		"fault with an attempt":    {int(evFault), 0, 0, 1, 0},
		"fault outside schedule":   {int(evFault), 0, 0, 0, len(c.schedule)},
		"negative fault":           {int(evFault), 0, 0, 0, -1},
		"fault with an agent":      {int(evFault), 9, 0, 0, 0},
	} {
		if _, err := c.decodeEvent(snapshot.NewDecoder(encode(f))); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
			t.Errorf("%s %v: %v, want ErrCorruptSnapshot", name, f, err)
		}
	}
	// An attempt the event's 32 bits cannot hold is refused even where
	// MaxRetries would allow it.
	c.cfg.Backoff.MaxRetries = 1 << 40
	if _, err := c.decodeEvent(snapshot.NewDecoder(encode([5]int{int(evRetry), 0, 7, 1 << 32, 0}))); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Errorf("attempt past int32: %v, want ErrCorruptSnapshot", err)
	}
}

// sessionIDCheckpoint returns the campaign restored at event 500, its
// re-encoded payload and the IDs of its open sessions, which must be
// at least three.
func sessionIDCheckpoint(t *testing.T) (Config, *campaign, []byte, []int) {
	t.Helper()
	cfg, c := restoredAt(t, 500)
	var ids []int
	w := c.sessions.window()
	for i := range w {
		if w[i].phase != phaseClosed {
			ids = append(ids, c.sessions.first+i)
		}
	}
	if len(ids) < 3 {
		t.Fatalf("only %d open sessions at event 500", len(ids))
	}
	var e snapshot.Encoder
	c.encodeState(&e)
	return cfg, c, e.Bytes(), ids
}

// patchInts returns payload with the one run of fixed-width ints from
// replaced by to, failing unless from occurs exactly once.
func patchInts(t *testing.T, payload []byte, from, to []int) []byte {
	t.Helper()
	var f, r snapshot.Encoder
	for _, v := range from {
		f.Int(v)
	}
	for _, v := range to {
		r.Int(v)
	}
	if n := bytes.Count(payload, f.Bytes()); n != 1 {
		t.Fatalf("ints %v occur %d times in the payload, want once", from, n)
	}
	return bytes.Replace(payload, f.Bytes(), r.Bytes(), 1)
}

// sessionHead is a session record's first five ints: its ID, agent,
// endpoints and width.
func sessionHead(c *campaign, id int) []int {
	s, _ := c.sessions.get(id)
	return []int{id, s.agent, s.a, s.b, s.width}
}

// refuseRestore demands that restoring payload fails as corrupt with a
// message containing want.
func refuseRestore(t *testing.T, cfg Config, payload []byte, want string) {
	t.Helper()
	fresh, err := build(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.restoreState(snapshot.NewDecoder(payload))
	if !errors.Is(err, snapshot.ErrCorruptSnapshot) || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore: %v, want ErrCorruptSnapshot containing %q", err, want)
	}
}

// TestRestoreRefusesUnorderedSessions swaps the IDs of the first two
// open sessions in a checkpoint: sessions listed out of ID order are
// refused, as is a session listed twice.
func TestRestoreRefusesUnorderedSessions(t *testing.T) {
	cfg, c, payload, ids := sessionIDCheckpoint(t)
	h0, h1 := sessionHead(c, ids[0]), sessionHead(c, ids[1])
	swapped := patchInts(t, payload, h0, append([]int{ids[1]}, h0[1:]...))
	swapped = patchInts(t, swapped, h1, append([]int{ids[0]}, h1[1:]...))
	refuseRestore(t, cfg, swapped, "listed after")
	twice := patchInts(t, payload, h1, append([]int{ids[0]}, h1[1:]...))
	refuseRestore(t, cfg, twice, "listed after")
}

// TestRestoreRefusesSessionOutsideIssued moves the newest open session
// to the next session ID, which no arrival has issued yet, and the
// oldest to -1.
func TestRestoreRefusesSessionOutsideIssued(t *testing.T) {
	cfg, c, payload, ids := sessionIDCheckpoint(t)
	next := c.sessions.next()
	last := sessionHead(c, ids[len(ids)-1])
	refuseRestore(t, cfg, patchInts(t, payload, last, append([]int{next}, last[1:]...)),
		fmt.Sprintf("session %d outside [0, %d)", next, next))
	first := sessionHead(c, ids[0])
	refuseRestore(t, cfg, patchInts(t, payload, first, append([]int{-1}, first[1:]...)),
		fmt.Sprintf("session -1 outside [0, %d)", next))
}

// TestRestoreRefusesNextSessionMismatch rewrites the stored next
// session ID, which follows the event count, to the oldest open
// session's ID and to one past the arrivals issued. Resumed, the first
// would hand live sessions' IDs to new arrivals.
func TestRestoreRefusesNextSessionMismatch(t *testing.T) {
	cfg, c, payload, ids := sessionIDCheckpoint(t)
	events, next := int(c.loop.Events()), c.sessions.next()
	for _, bad := range []int{ids[0], next + 1} {
		refuseRestore(t, cfg, patchInts(t, payload, []int{events, next}, []int{events, bad}),
			fmt.Sprintf("next session %d, but the agents issued %d arrivals", bad, next))
	}
}

// TestRestoreRefusesEventForUnissuedSession queues a retry and a
// release for the next session ID, which no arrival has issued yet.
func TestRestoreRefusesEventForUnissuedSession(t *testing.T) {
	for _, ev := range []event{{kind: evRetry, attempt: 1}, {kind: evRelease}} {
		cfg, c := restoredAt(t, 500)
		ev.id = c.sessions.next()
		c.events.Push(c.srv.Clock(), ev)
		var e snapshot.Encoder
		c.encodeState(&e)
		refuseRestore(t, cfg, e.Bytes(), fmt.Sprintf("event for session %d outside [0, %d)", ev.id, ev.id))
	}
}
