// Package ctrl is the long-running lightpath-controller runtime: a
// persistent service core that owns a route.Allocator/invariant.Auditor
// pair and serves circuit establish/release/reroute/health requests
// behind a length-prefixed binary wire protocol.
//
// The package is built around a virtual clock. Every robustness
// decision — queue admission, per-request deadlines, breaker cooldowns,
// service completion — is taken against simulated unit.Seconds that
// advance by modeled service times, never against the wall clock, so a
// million-request load campaign over the same core is bit-for-bit
// reproducible from its seed and the live daemon (cmd/lightpath-
// controller) inherits the exact semantics the campaign validated.
//
// Robustness semantics, in the order a request meets them:
//
//  1. Admission: a bounded virtual queue sheds with ErrOverloaded when
//     the backlog would exceed QueueCap requests (backpressure).
//  2. Deadline: a request whose queue wait alone would overrun its
//     deadline is rejected with ErrDeadlineExceeded before it touches
//     the allocator.
//  3. Breaker: each fabric region (wafer) owns a circuit breaker;
//     consecutive setup failures trip it open and requests for the
//     region fail fast with ErrBreakerOpen until the cooldown elapses
//     and a half-open probe succeeds.
//  4. Degradation ladder: a failed fast-path establish transparently
//     falls back to width-halving (EstablishDegraded); circuits broken
//     by faults are rerouted first, then degraded, then shed. The wire
//     interface never changes shape while the fabric degrades.
package ctrl

import (
	"errors"
	"fmt"
)

// ErrOverloaded reports that the controller's bounded request queue is
// full and the request was shed at admission. Clients should back off
// and retry; the condition is transient by construction.
var ErrOverloaded = errors.New("ctrl: controller overloaded, request shed")

// ErrDeadlineExceeded reports that a request could not be served
// within its deadline: the queue wait plus service time overran the
// budget the client attached to the request.
var ErrDeadlineExceeded = errors.New("ctrl: request deadline exceeded")

// ErrBreakerOpen reports that the fabric region's circuit breaker is
// open after consecutive setup failures: the controller fails fast
// instead of burning allocator work on a region that is currently
// unroutable.
var ErrBreakerOpen = errors.New("ctrl: region circuit breaker open")

// Preallocated Allow rejections: a tripped breaker turns away every
// request in its cooldown window, so these fire at full request rate.
// Both wrap ErrBreakerOpen for errors.Is.
var (
	errBreakerCooling = fmt.Errorf("%w: cooling down", ErrBreakerOpen)
	errBreakerProbing = fmt.Errorf("%w: half-open probe quota reached", ErrBreakerOpen)
)

// ErrBadFrame reports a malformed wire-protocol frame: truncated,
// oversized, carrying an unknown message type, or failing the payload
// codec. Every decode failure in this package wraps it, so transports
// gate close-the-connection behavior on a single errors.Is check —
// and never panic or hang on hostile bytes.
var ErrBadFrame = errors.New("ctrl: malformed wire frame")

// ErrUnknownCircuit reports a release or reroute request naming a
// circuit ID the controller does not currently hold.
var ErrUnknownCircuit = errors.New("ctrl: unknown circuit id")
