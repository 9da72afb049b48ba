// Package netsim is a discrete-event fluid-flow network simulator: a
// set of flows share the capacity of the resources (links, circuits)
// they traverse under max-min fairness, and the simulator advances
// from flow completion to flow completion, recomputing the fair rates
// as capacity frees up. Flows that share no resource, directly or
// through other flows, never affect each other, so each such group
// runs on its own clock.
//
// It exists to validate the paper's analytic alpha-beta arguments
// dynamically: collective schedules execute against an electrical
// torus (where concurrent transfers contend on shared links — the
// paper's congestion) or against photonic circuits (contention-free by
// construction), and the measured completion times must bracket and
// converge to the cost model's predictions (a DESIGN.md invariant).
package netsim

import (
	"errors"

	"lightpath/internal/unit"
)

// Flow is one data transfer traversing a set of shared resources.
type Flow[R comparable] struct {
	// Bytes is the payload size.
	Bytes unit.Bytes
	// Via lists the resources the flow occupies; its rate is the
	// max-min fair share of its most contended resource.
	Via []R
}

// Result reports a simulated flow set.
type Result struct {
	// Makespan is when the last flow finished.
	Makespan unit.Seconds
	// FlowEnd[i] is when flow i finished.
	FlowEnd []unit.Seconds
	// Delivered[i] is the bytes flow i delivered (equals its request;
	// exposed so tests can assert conservation).
	Delivered []unit.Bytes
}

// ErrStarvedFlow reports a flow that can never finish: it has positive
// bytes but traverses no resource or a zero-capacity resource.
var ErrStarvedFlow = errors.New("netsim: flow can never complete")
