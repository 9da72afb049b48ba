package main

import (
	"errors"
	"strings"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/collective"
	"lightpath/internal/ctrl"
	"lightpath/internal/invariant"
	"lightpath/internal/netsim"
	"lightpath/internal/route"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// The repo's error taxonomy promises that every sentinel survives the
// wrapping between the layer that raises it and the command layer:
// errors.Is must identify the failure class here, at the top of the
// stack, without string matching. Each case below provokes one
// sentinel through public API only — the same call paths the
// subcommands use — and checks both the sentinel and that the message
// still carries the human-readable context added along the way.
func TestErrorTaxonomyFromTheTop(t *testing.T) {
	newAlloc := func(t *testing.T) *route.Allocator {
		t.Helper()
		rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return route.NewAllocator(rack, nil)
	}

	cases := []struct {
		name     string
		sentinel error
		context  string // substring the wrapped message must retain
		trigger  func(t *testing.T) error
	}{
		{
			name:     "dead endpoint",
			sentinel: route.ErrEndpointFailed,
			context:  "chip",
			trigger: func(t *testing.T) error {
				a := newAlloc(t)
				a.Rack().TileOf(3).FailChip()
				_, err := a.Establish(route.Request{A: 3, B: 9, Width: 1}, 0)
				return err
			},
		},
		{
			name:     "no path across cut fibers",
			sentinel: route.ErrNoPath,
			context:  "chips",
			trigger: func(t *testing.T) error {
				a := newAlloc(t)
				rack := a.Rack()
				for trunk := 0; trunk < rack.NumTrunks(); trunk++ {
					for row := 0; row < rack.Config().Rows; row++ {
						if _, err := a.ApplyFault(chaos.Fault{Class: chaos.FiberCut, Trunk: trunk, Row: row}); err != nil {
							t.Fatal(err)
						}
					}
				}
				_, err := a.Establish(route.Request{A: 0, B: 40, Width: 1}, 0)
				return err
			},
		},
		{
			name:     "starved flow in a schedule step",
			sentinel: netsim.ErrStarvedFlow,
			context:  "step 0",
			trigger: func(t *testing.T) error {
				// A detour function that finds no links leaves a
				// positive-byte transfer with nothing to cross.
				sched := &collective.Schedule{
					N: 8, ElemBytes: 4,
					Steps: []collective.Step{{Transfers: []collective.Transfer{
						{From: 0, To: 1, Range: collective.Range{Lo: 0, Hi: 8}},
					}}},
				}
				noPath := func(collective.Transfer) []torus.Link { return nil }
				var e netsim.Executor
				_, err := e.Electrical(sched, torus.New(torus.Shape{4, 4, 4}), unit.GBps(1), noPath, netsim.ExecOptions{})
				return err
			},
		},
		{
			name:     "controller overloaded",
			sentinel: ctrl.ErrOverloaded,
			context:  "queue",
			trigger: func(t *testing.T) error {
				s, err := ctrl.NewServer(ctrl.Config{Seed: 1, QueueCap: 2})
				if err != nil {
					t.Fatal(err)
				}
				// A same-instant burst: the queue holds 2, the rest shed.
				var last ctrl.Response
				for i := 0; i < 8; i++ {
					last, _ = s.Submit(ctrl.Request{Op: ctrl.OpEstablish, A: i % 4, B: 20 + i, Width: 1}, 0)
				}
				return last.Err()
			},
		},
		{
			name:     "deadline tighter than service",
			sentinel: ctrl.ErrDeadlineExceeded,
			context:  "exceeds deadline",
			trigger: func(t *testing.T) error {
				s, err := ctrl.NewServer(ctrl.Config{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				// Default establish service is 2 us; a 1 us budget can
				// never be met and is refused before consuming capacity.
				resp, _ := s.Submit(ctrl.Request{
					Op: ctrl.OpEstablish, A: 0, B: 9, Width: 1, Deadline: unit.Microsecond,
				}, 0)
				return resp.Err()
			},
		},
		{
			name:     "breaker fences a dead chip",
			sentinel: ctrl.ErrBreakerOpen,
			context:  "cooling down",
			trigger: func(t *testing.T) error {
				s, err := ctrl.NewServer(ctrl.Config{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.ApplyFault(chaos.Fault{Class: chaos.ChipFailure, Chip: 5}, 0); err != nil {
					t.Fatal(err)
				}
				// Spaced arrivals so the queue drains: the threshold's
				// worth of clean endpoint failures trips the chip's
				// breaker, and the next arrival, inside the 1 ms
				// cooldown, is rejected by the open breaker.
				var last ctrl.Response
				for i := 0; i <= ctrl.BreakerFailThreshold; i++ {
					at := unit.Seconds(i+1) * 100 * unit.Microsecond
					last, _ = s.Submit(ctrl.Request{Op: ctrl.OpEstablish, A: 5, B: 30, Width: 1}, at)
				}
				return last.Err()
			},
		},
		{
			name:     "invariant violated",
			sentinel: invariant.ErrViolated,
			context:  "violation",
			trigger: func(t *testing.T) error {
				a := newAlloc(t)
				aud := invariant.Attach(a, invariant.Paranoid)
				if _, err := a.Establish(route.Request{A: 0, B: 5, Width: 2}, 0); err != nil {
					t.Fatal(err)
				}
				// Hardware mutated behind the allocator: the next audit
				// must turn it into an error the top level can classify.
				if err := a.Rack().TileOf(20).Reserve(1); err != nil {
					t.Fatal(err)
				}
				aud.Audit("sabotage")
				return aud.Err()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.trigger(t)
			if err == nil {
				t.Fatal("trigger produced no error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, sentinel) = false; wrapping broke the taxonomy", err)
			}
			if !strings.Contains(err.Error(), tc.context) {
				t.Fatalf("message %q lost its context (%q)", err, tc.context)
			}
		})
	}
}
