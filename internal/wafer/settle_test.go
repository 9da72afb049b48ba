package wafer_test

import (
	"testing"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

func establish(t *testing.T, req route.Request, now unit.Seconds) (*wafer.Rack, *route.Circuit) {
	t.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := route.NewAllocator(rack, rng.New(1)).Establish(req, now)
	if err != nil {
		t.Fatal(err)
	}
	return rack, c
}

// TestSwitch13SettlesIn3_7us: experiment E12's switching headline —
// both MZI stages of every 1x3 switch drive in parallel, and so do the
// switches along a circuit, so an L-path through several switches is
// ready one reconfiguration latency (3.7 us) after programming.
func TestSwitch13SettlesIn3_7us(t *testing.T) {
	now := unit.Seconds(1)
	// Chip 0 = wafer 0 (0,0); chip 11 = wafer 0 (1,3): two segments.
	_, c := establish(t, route.Request{A: 0, B: 11, Width: 1}, now)
	if len(c.Segments) != 2 {
		t.Fatalf("L-path segments = %d, want 2", len(c.Segments))
	}
	if want := now + phy.ReconfigLatency; c.ReadyAt() != want {
		t.Fatalf("ready at %v, want %v", c.ReadyAt(), want)
	}
}

// TestEndpointBandwidth: a circuit of width w terminating at a tile
// takes w of its lasers and carries w x 224 Gbps.
func TestEndpointBandwidth(t *testing.T) {
	rack, c := establish(t, route.Request{A: 0, B: 7, Width: 4}, 0)
	if used := rack.TileOf(0).UsedLasers(); used != 4 {
		t.Fatalf("endpoint lasers used = %d, want 4", used)
	}
	if got := c.Bandwidth(rack.Config().WavelengthCapacity); got != 4*224*unit.Gbps {
		t.Fatalf("bandwidth(4) = %v", got)
	}
}
