package ctrl

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// TestBreakerStateMachine walks the documented transitions directly:
// closed trips open at exactly BreakerFailThreshold consecutive
// failures, an open breaker rejects until the cooldown elapses and
// then admits a probe, a probe failure trips it again and a probe
// success closes it.
func TestBreakerStateMachine(t *testing.T) {
	var b Breaker

	// Closed: failures below the threshold stay closed; a success
	// resets the streak.
	for i := 0; i < BreakerFailThreshold-1; i++ {
		if err := b.Allow(0); err != nil {
			t.Fatalf("closed breaker rejected: %v", err)
		}
		b.Failure(0)
	}
	b.Success()
	for i := 0; i < BreakerFailThreshold-1; i++ {
		b.Failure(0)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker tripped below threshold after a reset: %v", b.State())
	}

	// The threshold-th consecutive failure trips it.
	b.Failure(0)
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state %v trips %d after threshold, want open/1", b.State(), b.Trips())
	}

	// Open: rejects with the taxonomy sentinel until cooldown.
	if err := b.Allow(breakerCooldown / 2); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker before cooldown: %v", err)
	}

	// Cooldown elapsed: the open breaker admits a probe.
	if err := b.Allow(breakerCooldown); err != nil {
		t.Fatalf("open breaker past its cooldown rejected the probe: %v", err)
	}

	// A probe failure trips it again at once.
	b.Failure(breakerCooldown)
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state %v trips %d after probe failure, want open/2", b.State(), b.Trips())
	}
	if err := b.Allow(breakerCooldown + breakerCooldown/2); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("retripped breaker before its new cooldown: %v", err)
	}

	// Next epoch: probe succeeds, breaker closes and passes freely.
	if err := b.Allow(2 * breakerCooldown); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", b.State())
	}
	if err := b.Allow(2 * breakerCooldown); err != nil {
		t.Fatalf("closed breaker rejected after recovery: %v", err)
	}
}

// breakerTrace drives one seeded random workload through a breaker and
// returns the full transition trace, checking state-machine legality
// at every step.
func breakerTrace(t *testing.T, seed uint64) string {
	t.Helper()
	r := rng.New(seed)
	var b Breaker
	var trace strings.Builder
	now := unit.Seconds(0)
	prev := b.State()
	for step := 0; step < 400; step++ {
		now += unit.Seconds(r.Intn(5)) * 100 * unit.Microsecond
		succeeded := false
		if err := b.Allow(now); err != nil {
			if !errors.Is(err, ErrBreakerOpen) {
				t.Fatalf("step %d: rejection outside the taxonomy: %v", step, err)
			}
			fmt.Fprintf(&trace, "%d reject %v\n", step, b.State())
		} else if r.Float64() < 0.8 {
			// An admitted request resolves either way, biased toward
			// failure so trips actually happen.
			b.Failure(now)
			fmt.Fprintf(&trace, "%d fail -> %v\n", step, b.State())
		} else {
			b.Success()
			succeeded = true
			fmt.Fprintf(&trace, "%d ok -> %v\n", step, b.State())
		}
		// Only a success closes a breaker, and only a failure opens one.
		if cur := b.State(); cur != prev && (cur == BreakerClosed) != succeeded {
			t.Fatalf("step %d: %v -> %v without the settlement that moves it", step, prev, cur)
		}
		prev = b.State()
	}
	fmt.Fprintf(&trace, "trips=%d\n", b.Trips())
	if b.Trips() == 0 {
		t.Fatalf("seed %d: workload never tripped the breaker", seed)
	}
	return trace.String()
}

// TestBreakerDeterministic replays 200 seeded random workloads twice
// and demands byte-identical transition traces — the breaker is a pure
// function of its call sequence, with no hidden wall-clock or map-order
// dependence. Run under -race this also proves the trace computation
// shares nothing between trials.
func TestBreakerDeterministic(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		seed := uint64(trial)
		if a, b := breakerTrace(t, seed), breakerTrace(t, seed); a != b {
			t.Fatalf("seed %d: transition traces diverged:\n--- first ---\n%s--- second ---\n%s", seed, a, b)
		}
	}
}

// TestBreakerSnapshotRoundTrip checks a breaker restored mid-epoch
// behaves identically to the original.
func TestBreakerSnapshotRoundTrip(t *testing.T) {
	var b Breaker
	for range BreakerFailThreshold {
		b.Failure(0) // the last one trips it at t=0
	}
	var e snapshot.Encoder
	b.EncodeState(&e)
	var r Breaker
	if err := r.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r.State() != b.State() || r.Trips() != b.Trips() {
		t.Fatalf("restored breaker %v/%d, want %v/%d", r.State(), r.Trips(), b.State(), b.Trips())
	}
	// Both must admit their probe at the same instant.
	errA, errB := b.Allow(breakerCooldown), r.Allow(breakerCooldown)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("restored breaker diverged at cooldown: %v vs %v", errA, errB)
	}
}

// breakerPayload encodes a breaker state field by field, in
// EncodeState's order, so a test can write counters no call sequence
// reaches.
func breakerPayload(state BreakerState, failures int, openedAt unit.Seconds, trips int) []byte {
	var e snapshot.Encoder
	e.Int(int(state))
	e.Int(failures)
	snapshot.Unit(&e, openedAt)
	e.Int(trips)
	return e.Bytes()
}

// TestBreakerRestoreRefusesImpossibleCounters feeds RestoreState one
// crafted payload per rule. Each breaks a count or state the state
// machine keeps in range.
func TestBreakerRestoreRefusesImpossibleCounters(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"unknown-state", breakerPayload(BreakerOpen+1, 0, 0, 1)},
		{"negative-state", breakerPayload(BreakerClosed-1, 0, 0, 0)},
		{"negative-failures", breakerPayload(BreakerClosed, -1, 0, 0)},
		{"negative-trips", breakerPayload(BreakerOpen, 0, 0, -1)},
		{"failures-at-threshold", breakerPayload(BreakerClosed, BreakerFailThreshold, 0, 0)},
		{"opened-at-nan", breakerPayload(BreakerOpen, 0, unit.Seconds(math.NaN()), 1)},
		{"opened-at-inf", breakerPayload(BreakerOpen, 0, unit.Seconds(math.Inf(1)), 1)},
		{"opened-at-negative", breakerPayload(BreakerOpen, 0, -unit.Microsecond, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b Breaker
			if err := b.RestoreState(snapshot.NewDecoder(tc.payload)); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("err %v, want ErrCorruptSnapshot", err)
			}
			if b != (Breaker{}) {
				t.Fatalf("refused restore changed the breaker: %+v", b)
			}
		})
	}

	// The limits themselves restore: a streak one short of tripping,
	// and an open breaker, which rejects until its cooldown and then
	// admits a probe.
	var b Breaker
	if err := b.RestoreState(snapshot.NewDecoder(breakerPayload(BreakerClosed, BreakerFailThreshold-1, 0, 3))); err != nil {
		t.Fatal(err)
	}
	b.Failure(0)
	if b.State() != BreakerOpen {
		t.Fatalf("streak one short of the threshold did not trip on the next failure: %v", b.State())
	}
	b = Breaker{}
	if err := b.RestoreState(snapshot.NewDecoder(breakerPayload(BreakerOpen, 0, unit.Millisecond, 1))); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(unit.Millisecond + breakerCooldown/2); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("restored open breaker admitted a request in its cooldown: %v", err)
	}
	if err := b.Allow(unit.Millisecond + breakerCooldown); err != nil {
		t.Fatalf("restored open breaker rejected its probe: %v", err)
	}
}
