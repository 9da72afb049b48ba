package ctrl

import (
	"fmt"
	"math"

	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// BreakerState is the circuit breaker's position in the classic
// closed → open → half-open state machine.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes requests through and counts consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a limited number of probe requests; one
	// success closes the breaker, one failure reopens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// The controller's breaker tuning: trip after BreakerFailThreshold
// consecutive setup failures, cool down for one simulated millisecond
// (hundreds of request slots), then admit breakerHalfOpenProbes probe
// at a time.
const (
	// BreakerFailThreshold is the consecutive-failure count that trips
	// a closed breaker open.
	BreakerFailThreshold = 8
	// breakerCooldown is how long an open breaker rejects before
	// allowing half-open probes.
	breakerCooldown = unit.Millisecond
	// breakerHalfOpenProbes is how many probe requests a half-open
	// breaker admits before further requests fail fast.
	breakerHalfOpenProbes = 1
)

// Breaker is one chip's circuit breaker. It is a pure, deterministic
// state machine over virtual time: identical call sequences produce
// identical transitions, which is what the seeded property tests
// assert. The zero value is a closed breaker; a server keeps its
// breakers by value in one array.
type Breaker struct {
	state    BreakerState
	failures int          // consecutive failures while closed
	openedAt unit.Seconds // when the breaker last tripped
	probes   int          // in-flight half-open probes
	trips    int          // lifetime open transitions
}

// State returns the breaker's current state without advancing it.
func (b *Breaker) State() BreakerState { return b.state }

// Trips returns how many times the breaker has tripped open.
func (b *Breaker) Trips() int { return b.trips }

// Allow reports whether a request may proceed at virtual time now. An
// open breaker whose cooldown has elapsed transitions to half-open and
// admits up to breakerHalfOpenProbes probes; each admitted request
// must be resolved with exactly one Success or Failure call.
func (b *Breaker) Allow(now unit.Seconds) error {
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if now < b.openedAt+breakerCooldown {
			// Static: an open breaker rejects every request of the cooldown
			// window, so this path is far too hot for a formatted error.
			return errBreakerCooling
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probes >= breakerHalfOpenProbes {
			return errBreakerProbing
		}
		b.probes++
		return nil
	}
}

// Success resolves an admitted request favorably: it resets the
// consecutive-failure count and closes a half-open breaker.
func (b *Breaker) Success() {
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.probes = 0
	}
}

// Failure resolves an admitted request unfavorably at virtual time
// now: a half-open probe failure reopens the breaker immediately, and
// a closed breaker trips once the consecutive-failure count reaches
// the threshold.
func (b *Breaker) Failure(now unit.Seconds) {
	switch b.state {
	case BreakerHalfOpen:
		b.trip(now)
	case BreakerClosed:
		b.failures++
		if b.failures >= BreakerFailThreshold {
			b.trip(now)
		}
	}
}

// trip opens the breaker.
func (b *Breaker) trip(now unit.Seconds) {
	b.state = BreakerOpen
	b.openedAt = now
	b.failures = 0
	b.probes = 0
	b.trips++
}

// EncodeState appends the breaker's state.
func (b *Breaker) EncodeState(e *snapshot.Encoder) {
	e.Int(int(b.state))
	e.Int(b.failures)
	snapshot.Unit(e, b.openedAt)
	e.Int(b.probes)
	e.Int(b.trips)
}

// RestoreState replays state captured by EncodeState. It refuses
// counters the state machine cannot reach under the breaker constants:
// an unknown state, a negative count, a failure streak at or past the
// trip threshold, more probes than the half-open quota, and a trip
// time that is not a finite, non-negative instant.
func (b *Breaker) RestoreState(d *snapshot.Decoder) error {
	s := d.Int()
	failures := d.Int()
	openedAt := snapshot.DecodeUnit[unit.Seconds](d)
	probes, trips := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	switch {
	case s < int(BreakerClosed) || s > int(BreakerHalfOpen):
		return fmt.Errorf("%w: breaker state %d", snapshot.ErrCorruptSnapshot, s)
	case failures < 0 || probes < 0 || trips < 0:
		return fmt.Errorf("%w: breaker counts failures %d, probes %d, trips %d",
			snapshot.ErrCorruptSnapshot, failures, probes, trips)
	case failures >= BreakerFailThreshold:
		return fmt.Errorf("%w: breaker failure streak %d at or past its threshold %d",
			snapshot.ErrCorruptSnapshot, failures, BreakerFailThreshold)
	case probes > breakerHalfOpenProbes:
		return fmt.Errorf("%w: breaker holds %d probes, quota %d",
			snapshot.ErrCorruptSnapshot, probes, breakerHalfOpenProbes)
	case math.IsNaN(float64(openedAt)) || math.IsInf(float64(openedAt), 0) || openedAt < 0:
		return fmt.Errorf("%w: breaker opened at %v", snapshot.ErrCorruptSnapshot, float64(openedAt))
	}
	b.state = BreakerState(s)
	b.failures = failures
	b.openedAt = openedAt
	b.probes = probes
	b.trips = trips
	return nil
}
