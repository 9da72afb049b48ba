package ctrl

import (
	"fmt"
	"math"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// BreakerState is the circuit breaker's position in its two-state
// closed → open machine.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes requests through and counts consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses, then admits
	// the next request as its probe: the probe's success closes the
	// breaker, and its failure trips it again.
	BreakerOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// The controller's breaker tuning: trip after BreakerFailThreshold
// consecutive setup failures, cool down for one simulated millisecond
// (hundreds of request slots), then probe with the next request.
const (
	// BreakerFailThreshold is the consecutive-failure count that trips
	// a closed breaker open.
	BreakerFailThreshold = 8
	// breakerCooldown is how long an open breaker rejects before it
	// admits a probe.
	breakerCooldown = unit.Millisecond
)

// Breaker is one chip's circuit breaker. It is a pure, deterministic
// state machine over virtual time: identical call sequences produce
// identical transitions, which is what the seeded property tests
// assert. The zero value is a closed breaker; a server keeps its
// breakers by value in one array.
//
// The caller settles each admitted request with exactly one Success or
// Failure before its next Allow — Server.Submit does so before it
// returns, and Handler serializes Submit calls — so an open breaker
// never has more than one probe outstanding and needs no probe count.
type Breaker struct {
	state    BreakerState
	failures int          // consecutive failures while closed
	openedAt unit.Seconds // when the breaker last tripped
	trips    int          // lifetime open transitions
}

// State returns the breaker's current state without advancing it.
func (b *Breaker) State() BreakerState { return b.state }

// Trips returns how many times the breaker has tripped open.
func (b *Breaker) Trips() int { return b.trips }

// Allow reports whether a request may proceed at virtual time now. An
// open breaker whose cooldown has elapsed admits the request as its
// probe; each admitted request must be settled with exactly one
// Success or Failure call before the next Allow.
func (b *Breaker) Allow(now unit.Seconds) error {
	if b.state == BreakerOpen && now < b.openedAt+breakerCooldown {
		// Static: an open breaker rejects every request of the cooldown
		// window, so this path is far too hot for a formatted error.
		return errBreakerCooling
	}
	return nil
}

// Success settles an admitted request favorably: it resets the
// consecutive-failure count and closes an open breaker whose probe
// this was.
func (b *Breaker) Success() {
	b.failures = 0
	b.state = BreakerClosed
}

// Failure settles an admitted request unfavorably at virtual time
// now: a failed probe trips an open breaker again at once, and a
// closed breaker trips once the consecutive-failure count reaches the
// threshold.
func (b *Breaker) Failure(now unit.Seconds) {
	if b.state == BreakerOpen {
		b.trip(now)
		return
	}
	b.failures++
	if b.failures >= BreakerFailThreshold {
		b.trip(now)
	}
}

// trip opens the breaker.
func (b *Breaker) trip(now unit.Seconds) {
	b.state = BreakerOpen
	b.openedAt = now
	b.failures = 0
	b.trips++
}

// EncodeState appends the breaker's state.
func (b *Breaker) EncodeState(e *snapshot.Encoder) {
	e.Int(int(b.state))
	e.Int(b.failures)
	snapshot.Unit(e, b.openedAt)
	e.Int(b.trips)
}

// RestoreState replays state captured by EncodeState. It refuses
// counters the state machine cannot reach under the breaker constants:
// an unknown state, a negative count, a failure streak at or past the
// trip threshold, and a trip time that is not a finite, non-negative
// instant.
func (b *Breaker) RestoreState(d *snapshot.Decoder) error {
	s := d.Int()
	failures := d.Int()
	openedAt := snapshot.DecodeUnit[unit.Seconds](d)
	trips := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	switch {
	case s < int(BreakerClosed) || s > int(BreakerOpen):
		return fmt.Errorf("%w: breaker state %d", snapshot.ErrCorruptSnapshot, s)
	case failures < 0 || trips < 0:
		return fmt.Errorf("%w: breaker counts failures %d, trips %d",
			snapshot.ErrCorruptSnapshot, failures, trips)
	case failures >= BreakerFailThreshold:
		return fmt.Errorf("%w: breaker failure streak %d at or past its threshold %d",
			snapshot.ErrCorruptSnapshot, failures, BreakerFailThreshold)
	case math.IsNaN(float64(openedAt)) || math.IsInf(float64(openedAt), 0) || openedAt < 0:
		return fmt.Errorf("%w: breaker opened at %v", snapshot.ErrCorruptSnapshot, float64(openedAt))
	}
	b.state = BreakerState(s)
	b.failures = failures
	b.openedAt = openedAt
	b.trips = trips
	return nil
}
