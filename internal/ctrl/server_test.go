package ctrl

import (
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Audit = invariant.Paranoid
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submit is the test shorthand: request at a given arrival, status out.
func submit(s *Server, req Request, at unit.Seconds) Response {
	resp, _ := s.Submit(req, at)
	return resp
}

func TestServerEstablishReleaseReroute(t *testing.T) {
	s := newTestServer(t, nil)
	est := submit(s, Request{ID: 1, Op: OpEstablish, A: 0, B: 9, Width: 2}, 0)
	if est.Status != StatusOK || est.Width != 2 {
		t.Fatalf("establish: %+v", est)
	}
	if got := s.Allocator().NumCircuits(); got != 1 {
		t.Fatalf("allocator holds %d circuits, want 1", got)
	}

	rr := submit(s, Request{ID: 2, Op: OpReroute, Circuit: est.Circuit}, 10*unit.Microsecond)
	if rr.Status != StatusOK || rr.Width != 2 {
		t.Fatalf("reroute: %+v", rr)
	}

	rel := submit(s, Request{ID: 3, Op: OpRelease, Circuit: rr.Circuit}, 20*unit.Microsecond)
	if rel.Status != StatusOK {
		t.Fatalf("release: %+v", rel)
	}
	if got := s.Allocator().NumCircuits(); got != 0 {
		t.Fatalf("allocator holds %d circuits after release, want 0", got)
	}
	if aud := s.Auditor(); aud.Count() != 0 {
		t.Fatalf("%d invariant violations: %v", aud.Count(), aud.Err())
	}
}

func TestServerValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name string
		req  Request
		want Status
	}{
		{"zero width", Request{Op: OpEstablish, A: 0, B: 1}, StatusBadRequest},
		{"wider than a tile's lasers", Request{Op: OpEstablish, A: 0, B: 1, Width: 17}, StatusBadRequest},
		{"same chip", Request{Op: OpEstablish, A: 4, B: 4, Width: 1}, StatusBadRequest},
		{"chip out of range", Request{Op: OpEstablish, A: 0, B: 1 << 20, Width: 1}, StatusBadRequest},
		{"negative chip", Request{Op: OpEstablish, A: -1, B: 3, Width: 1}, StatusBadRequest},
		{"unknown op", Request{Op: numOps + 1}, StatusBadRequest},
		{"unknown circuit release", Request{Op: OpRelease, Circuit: 404}, StatusUnknownCircuit},
		{"unknown circuit reroute", Request{Op: OpReroute, Circuit: 404}, StatusUnknownCircuit},
	}
	for _, tc := range cases {
		if resp := submit(s, tc.req, 0); resp.Status != tc.want {
			t.Errorf("%s: status %v, want %v", tc.name, resp.Status, tc.want)
		}
	}
	if st := s.Stats(); st.BadRequest != 6 || st.UnknownCircuit != 2 {
		t.Fatalf("stats %+v: want 6 bad requests, 2 unknown circuits", st)
	}
	// Refused before admission, no request reached a breaker: chip 0's
	// is as new.
	if s.breakers[0] != (Breaker{}) {
		t.Fatalf("invalid requests moved chip 0's breaker: %+v", s.breakers[0])
	}
}

// TestServerAdmissionControl pins the backpressure contract: on one
// virtual instant the queue admits exactly QueueCap establishes, sheds
// the rest with StatusOverloaded — and still admits releases, because
// shedding the work that frees capacity would leak it.
func TestServerAdmissionControl(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueCap = 4 })
	held := submit(s, Request{Op: OpEstablish, A: 50, B: 60, Width: 1}, 0)
	if held.Status != StatusOK {
		t.Fatalf("setup establish: %+v", held)
	}
	var ok, shed int
	for i := 0; i < 10; i++ {
		resp := submit(s, Request{Op: OpEstablish, A: i, B: i + 10, Width: 1}, 0)
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusOverloaded:
			shed++
		default:
			t.Fatalf("burst response: %+v", resp)
		}
	}
	if ok != 3 || shed != 7 {
		t.Fatalf("admitted %d shed %d with cap 4 (one slot pre-held), want 3/7", ok, shed)
	}
	if resp := submit(s, Request{Op: OpRelease, Circuit: held.Circuit}, 0); resp.Status != StatusOK {
		t.Fatalf("release during overload was not exempt: %+v", resp)
	}
	// The freed capacity must actually drain: after the backlog clears,
	// establishes are admitted again.
	later := s.Clock() + 100*unit.Microsecond
	if resp := submit(s, Request{Op: OpEstablish, A: 30, B: 41, Width: 1}, later); resp.Status != StatusOK {
		t.Fatalf("establish after drain: %+v", resp)
	}
}

// TestServerDeadline pins deadline semantics: the miss is computed
// from queueing delay plus service time, rejected work consumes no
// capacity, and a zero deadline means none.
func TestServerDeadline(t *testing.T) {
	s := newTestServer(t, nil)
	// Empty queue: sojourn equals the establish service time.
	if resp := submit(s, Request{Op: OpEstablish, A: 0, B: 9, Width: 1, Deadline: unit.Microsecond}, 0); resp.Status != StatusDeadline {
		t.Fatalf("sub-service deadline: %+v", resp)
	}
	if depth := len(s.pending); depth != 0 {
		t.Fatalf("deadline miss consumed queue capacity: depth %d", depth)
	}
	if resp := submit(s, Request{Op: OpEstablish, A: 0, B: 9, Width: 1, Deadline: 0}, 0); resp.Status != StatusOK {
		t.Fatalf("zero deadline (none): %+v", resp)
	}
	// Queue three more establishes on the same instant, then demand a
	// budget the backlog cannot meet but an empty queue could.
	for i := 0; i < 3; i++ {
		submit(s, Request{Op: OpEstablish, A: 10 + i, B: 30 + i, Width: 1}, 0)
	}
	cfg := s.Config()
	budget := cfg.EstablishService * 2 // four queued services ahead of it
	if resp := submit(s, Request{Op: OpEstablish, A: 20, B: 45, Width: 1, Deadline: budget}, 0); resp.Status != StatusDeadline {
		t.Fatalf("queue-induced deadline: %+v", resp)
	}
	if st := s.Stats(); st.DeadlineMiss != 2 {
		t.Fatalf("deadline misses %d, want 2", st.DeadlineMiss)
	}
}

// TestServerBreakerFencesDeadChip kills a chip and checks the
// degradation ladder's last rung before shedding: clean endpoint
// failures until the chip's breaker trips, then fast ErrBreakerOpen
// rejections that never reach the allocator, then — after cooldown — a
// probe.
func TestServerBreakerFencesDeadChip(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 12}, 0); err != nil {
		t.Fatal(err)
	}
	var endpoint, fast int
	at := unit.Seconds(0)
	for i := 0; i < 3*BreakerFailThreshold; i++ {
		at += 100 * unit.Nanosecond
		switch resp := submit(s, Request{Op: OpEstablish, A: 12, B: 30, Width: 1}, at); resp.Status {
		case StatusEndpointFailed:
			endpoint++
		case StatusBreakerOpen:
			fast++
		default:
			t.Fatalf("dead-chip establish %d: %+v", i, resp)
		}
	}
	if endpoint != BreakerFailThreshold || fast != 2*BreakerFailThreshold {
		t.Fatalf("endpoint %d fast %d, want %d and %d",
			endpoint, fast, BreakerFailThreshold, 2*BreakerFailThreshold)
	}
	// Healthy chips are unaffected: breakers are per chip.
	if resp := submit(s, Request{Op: OpEstablish, A: 13, B: 30, Width: 1}, at); resp.Status != StatusOK {
		t.Fatalf("healthy chip collateral: %+v", resp)
	}
	// After the cooldown the breaker probes the (still dead) chip once,
	// then fails fast again. The breaker tripped at its service start
	// time (behind the committed backlog), so jump well past cooldown +
	// the backlog's worth of service.
	at = s.Clock() + breakerCooldown + 100*unit.Microsecond
	if resp := submit(s, Request{Op: OpEstablish, A: 12, B: 30, Width: 1}, at); resp.Status != StatusEndpointFailed {
		t.Fatalf("probe: %+v", resp)
	}
	if resp := submit(s, Request{Op: OpEstablish, A: 12, B: 30, Width: 1}, at); resp.Status != StatusBreakerOpen {
		t.Fatalf("post-probe rejection: %+v", resp)
	}
}

// TestServerEstablishKeepsItsWidth exhausts a chip's lasers until a
// full-width setup cannot fit, then checks the server refuses it with
// StatusNoPath rather than granting a narrower circuit, while an ask
// that fits the one laser left is granted.
func TestServerEstablishKeepsItsWidth(t *testing.T) {
	s := newTestServer(t, nil)
	at := unit.Seconds(0)
	// Fifteen of the 16 lasers on chip 0's tile: seven width-2 circuits
	// plus one width-1, leaving exactly one laser — enough for half of
	// the next width-2 ask, not all of it.
	for i := 0; i < 7; i++ {
		at += 10 * unit.Microsecond
		if resp := submit(s, Request{Op: OpEstablish, A: 0, B: 1 + i, Width: 2}, at); resp.Status != StatusOK {
			t.Fatalf("fill establish %d: %+v", i, resp)
		}
	}
	at += 10 * unit.Microsecond
	if resp := submit(s, Request{Op: OpEstablish, A: 0, B: 10, Width: 1}, at); resp.Status != StatusOK {
		t.Fatalf("fill establish width 1: %+v", resp)
	}
	at += 10 * unit.Microsecond
	if resp := submit(s, Request{Op: OpEstablish, A: 0, B: 20, Width: 2}, at); resp.Status != StatusNoPath {
		t.Fatalf("width 2 over one free laser: %+v, want no path", resp)
	}
	at += 10 * unit.Microsecond
	if resp := submit(s, Request{Op: OpEstablish, A: 0, B: 20, Width: 1}, at); resp.Status != StatusOK || resp.Width != 1 {
		t.Fatalf("width 1 over one free laser: %+v, want a width-1 grant", resp)
	}
}

// TestServerHealthBypassesAdmission pins the operability contract: an
// overloaded controller still answers health, with the queue depth and
// per-region breaker states in the report.
func TestServerHealthBypassesAdmission(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueCap = 2 })
	for i := 0; i < 6; i++ {
		submit(s, Request{Op: OpEstablish, A: i, B: i + 20, Width: 1}, 0)
	}
	h := submit(s, Request{Op: OpHealth}, 0)
	if h.Status != StatusOK {
		t.Fatalf("health under overload: %+v", h)
	}
	if h.Queue != 2 {
		t.Fatalf("health queue %d, want 2 (the cap)", h.Queue)
	}
	if len(h.Regions) != s.Allocator().Rack().NumChips() {
		t.Fatalf("health regions %d, want one per chip (%d)", len(h.Regions), s.Allocator().Rack().NumChips())
	}
}

// TestServerFaultReroutesHeldCircuits breaks a held circuit with a chip
// death and checks the fault report: the broken circuit is either
// rerouted (new ID, possibly narrower) or reported lost, and counters
// agree.
func TestServerFaultReroutesHeldCircuits(t *testing.T) {
	s := newTestServer(t, nil)
	est := submit(s, Request{Op: OpEstablish, A: 3, B: 9, Width: 2}, 0)
	if est.Status != StatusOK {
		t.Fatalf("establish: %+v", est)
	}
	moves, err := s.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 3}, unit.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].OldID != est.Circuit {
		t.Fatalf("fault moves %+v: want exactly the held circuit", moves)
	}
	// Chip 3 is dead, so the reroute cannot resurrect an endpoint: the
	// circuit must be reported lost, not silently kept.
	if moves[0].NewID != -1 {
		t.Fatalf("circuit with a dead endpoint rerouted to %d", moves[0].NewID)
	}
	st := s.Stats()
	if st.FaultsApplied != 1 || st.CircuitsLost != 1 {
		t.Fatalf("fault stats %+v", st)
	}
	if s.Allocator().NumCircuits() != 0 {
		t.Fatalf("lost circuit still held: %d circuits", s.Allocator().NumCircuits())
	}
	if s.Auditor().Count() != 0 {
		t.Fatalf("auditor tripped on fault handling: %v", s.Auditor().Err())
	}
}
