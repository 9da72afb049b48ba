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

// BreakerConfig parameterizes one region breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that trips a
	// closed breaker open.
	FailThreshold int
	// Cooldown is how long an open breaker rejects before allowing
	// half-open probes.
	Cooldown unit.Seconds
	// HalfOpenProbes is how many concurrent-epoch probe requests a
	// half-open breaker admits before further requests fail fast.
	HalfOpenProbes int
}

// DefaultBreakerConfig returns the controller's standard breaker
// tuning: trip after 8 consecutive setup failures, cool down for one
// simulated millisecond (hundreds of request slots), probe one
// request at a time.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailThreshold: 8, Cooldown: unit.Millisecond, HalfOpenProbes: 1}
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = d.Cooldown
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = d.HalfOpenProbes
	}
	return c
}

// Breaker is one fabric region's circuit breaker. It is a pure,
// deterministic state machine over virtual time: identical call
// sequences produce identical transitions, which is what the seeded
// property tests assert.
type Breaker struct {
	cfg BreakerConfig

	state    BreakerState
	failures int          // consecutive failures while closed
	openedAt unit.Seconds // when the breaker last tripped
	probes   int          // in-flight half-open probes
	trips    int          // lifetime open transitions
}

// NewBreaker builds a closed breaker with the config (zero fields get
// defaults). It returns a value: a server keeps its breakers in one
// array.
func NewBreaker(cfg BreakerConfig) Breaker {
	return Breaker{cfg: cfg.withDefaults()}
}

// State returns the breaker's current state without advancing it.
func (b *Breaker) State() BreakerState { return b.state }

// Trips returns how many times the breaker has tripped open.
func (b *Breaker) Trips() int { return b.trips }

// Allow reports whether a request may proceed at virtual time now. An
// open breaker whose cooldown has elapsed transitions to half-open and
// admits up to HalfOpenProbes probes; each admitted request must be
// resolved with exactly one Success or Failure call.
func (b *Breaker) Allow(now unit.Seconds) error {
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if now < b.openedAt+b.cfg.Cooldown {
			// Static: an open breaker rejects every request of the cooldown
			// window, so this path is far too hot for a formatted error.
			return errBreakerCooling
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probes >= b.cfg.HalfOpenProbes {
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
		if b.failures >= b.cfg.FailThreshold {
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

// EncodeState appends the breaker's mutable state (config is rebuilt
// by the restoring side).
func (b *Breaker) EncodeState(e *snapshot.Encoder) {
	e.Int(int(b.state))
	e.Int(b.failures)
	snapshot.Unit(e, b.openedAt)
	e.Int(b.probes)
	e.Int(b.trips)
}

// RestoreState replays state captured by EncodeState. It refuses
// counters the state machine cannot reach under the breaker's config:
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
	case failures >= b.cfg.FailThreshold:
		return fmt.Errorf("%w: breaker failure streak %d at or past its threshold %d",
			snapshot.ErrCorruptSnapshot, failures, b.cfg.FailThreshold)
	case probes > b.cfg.HalfOpenProbes:
		return fmt.Errorf("%w: breaker holds %d probes, quota %d",
			snapshot.ErrCorruptSnapshot, probes, b.cfg.HalfOpenProbes)
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
