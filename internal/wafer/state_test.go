package wafer

import (
	"errors"
	"testing"

	"lightpath/internal/snapshot"
)

// craftedLanePayload encodes a two-wafer rack whose given lane of
// wafer 1 holds exactly buses, written straight into the lane so the
// payload carries what AllocBus would never leave.
func craftedLanePayload(t *testing.T, o Orient, lane int, buses [][]Interval) []byte {
	t.Helper()
	r, err := NewRack(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Wafer(1).mustLane(o, lane).buses = buses
	var e snapshot.Encoder
	r.EncodeState(&e)
	return e.Bytes()
}

// TestRestoreRefusesMalformedBusIntervals feeds RestoreState one
// CRC-valid rack payload per kind of bus interval a live lane cannot
// hold. Each must be refused as corrupt; before the check, each
// restored with a nil error. The default wafer's horizontal lanes run
// over its 8 columns and its vertical lanes over its 4 rows.
func TestRestoreRefusesMalformedBusIntervals(t *testing.T) {
	cases := []struct {
		name  string
		o     Orient
		lane  int
		buses [][]Interval
	}{
		{"inverted", Horizontal, 2, [][]Interval{{{Lo: 5, Hi: 2}}}},
		{"negative", Horizontal, 2, [][]Interval{{{Lo: -3, Hi: 1}}}},
		{"past-the-lane", Horizontal, 2, [][]Interval{{}, {{Lo: 2, Hi: 40}}}},
		{"past-a-vertical-lane", Vertical, 5, [][]Interval{{{Lo: 1, Hi: 4}}}},
		{"overlapping", Horizontal, 2, [][]Interval{{{Lo: 1, Hi: 3}, {Lo: 2, Hi: 6}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := craftedLanePayload(t, tc.o, tc.lane, tc.buses)
			fresh, _ := NewRack(DefaultConfig(), 2)
			err := fresh.RestoreState(snapshot.NewDecoder(payload))
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("restore of %v on %s lane %d: err %v, want ErrCorruptSnapshot", tc.buses, tc.o, tc.lane, err)
			}
		})
	}
}

// TestRestoreKeepsWellFormedBusIntervals is the other side: intervals
// that touch the lane's ends, share a bus without sharing a position
// or sit on a bus after an empty one all restore, span for span.
func TestRestoreKeepsWellFormedBusIntervals(t *testing.T) {
	buses := [][]Interval{{{Lo: 4, Hi: 7}, {Lo: 0, Hi: 3}}, {}, {{Lo: 2, Hi: 2}}}
	payload := craftedLanePayload(t, Horizontal, 2, buses)
	fresh, _ := NewRack(DefaultConfig(), 2)
	if err := fresh.RestoreState(snapshot.NewDecoder(payload)); err != nil {
		t.Fatal(err)
	}
	w := fresh.Wafer(1)
	if got := w.AllocatedSpans(); got != 3 {
		t.Fatalf("restored %d spans, want 3", got)
	}
	for bus, ivs := range buses {
		for _, iv := range ivs {
			if ref := (BusRef{Orient: Horizontal, Lane: 2, Bus: bus, Span: iv}); !w.BusSpanAllocated(ref) {
				t.Fatalf("%v not restored", ref)
			}
		}
	}
}
