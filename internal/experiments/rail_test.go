package experiments

import (
	"strings"
	"testing"

	"lightpath/internal/unit"
)

// smallRailConfig is a sub-second campaign with every traffic class
// present: 4 rails x 16 servers, 512 flows in 16 components.
func smallRailConfig() RailFabricConfig {
	return RailFabricConfig{
		Rails:        4,
		Servers:      16,
		GroupSize:    4,
		XRailServers: 4,
		Waves:        8,
		BaseBytes:    unit.MB,
		RailBW:       unit.GBps(40),
		BusBW:        unit.GBps(100),
	}
}

// TestRailFabricCounts checks the config arithmetic against the
// placed campaign.
func TestRailFabricCounts(t *testing.T) {
	cfg := smallRailConfig()
	if got, want := cfg.FlowCount(), 512; got != want {
		t.Fatalf("FlowCount() = %d, want %d", got, want)
	}
	if got, want := cfg.Components(), 16; got != want {
		t.Fatalf("Components() = %d, want %d", got, want)
	}
	res, err := RailFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows != cfg.FlowCount() {
		t.Fatalf("placed %d flows, config promises %d", res.Flows, cfg.FlowCount())
	}
	if res.Components != cfg.Components() {
		t.Fatalf("result claims %d components, config promises %d", res.Components, cfg.Components())
	}
	if res.Endpoints != 64 || res.Rails != 4 {
		t.Fatalf("geometry echo wrong: %d endpoints, %d rails", res.Endpoints, res.Rails)
	}
	if res.Makespan <= 0 || res.RingMakespan <= 0 || res.XRailMakespan <= 0 {
		t.Fatalf("degenerate makespans: %v / %v / %v", res.Makespan, res.RingMakespan, res.XRailMakespan)
	}
	if res.Makespan != res.RingMakespan && res.Makespan != res.XRailMakespan {
		t.Fatalf("global makespan %v matches neither class (%v, %v)",
			res.Makespan, res.RingMakespan, res.XRailMakespan)
	}
	// Every ring link carries Waves flows, far above the even share.
	if res.Oversubscribed == 0 {
		t.Fatal("contended fabric reported zero oversubscribed links")
	}
	if res.MaxLoadFlows < cfg.Waves {
		t.Fatalf("peak link load %d below wave depth %d", res.MaxLoadFlows, cfg.Waves)
	}
}

// TestRailFabricCSVShape pins the CSV layout the golden gate diffs.
func TestRailFabricCSVShape(t *testing.T) {
	res, err := RailFabric(smallRailConfig())
	if err != nil {
		t.Fatal(err)
	}
	header, rows := res.CSV()
	if strings.Join(header, ",") != "class,rail,groups,flows,bytes,makespan_us" {
		t.Fatalf("unexpected header %v", header)
	}
	if len(rows) != res.Rails+1 {
		t.Fatalf("%d rows, want one per rail plus the cross-rail aggregate (%d)", len(rows), res.Rails+1)
	}
	for i := 0; i < res.Rails; i++ {
		if rows[i][0] != "ring" {
			t.Fatalf("row %d class = %q, want ring", i, rows[i][0])
		}
	}
	if last := rows[len(rows)-1]; last[0] != "xrail" || last[1] != "-1" {
		t.Fatalf("aggregate row = %v", rows[len(rows)-1])
	}
}

// TestRailFabricConfigValidate sweeps the rejection paths.
func TestRailFabricConfigValidate(t *testing.T) {
	base := smallRailConfig()
	mutations := map[string]func(*RailFabricConfig){
		"one rail":           func(c *RailFabricConfig) { c.Rails = 1 },
		"tiny group":         func(c *RailFabricConfig) { c.GroupSize = 1 },
		"xrail too large":    func(c *RailFabricConfig) { c.XRailServers = c.Servers },
		"indivisible groups": func(c *RailFabricConfig) { c.GroupSize = 5 },
		"no waves":           func(c *RailFabricConfig) { c.Waves = 0 },
		"no payload":         func(c *RailFabricConfig) { c.BaseBytes = 0 },
		"no bandwidth":       func(c *RailFabricConfig) { c.RailBW = 0 },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	if err := DefaultRailFabricConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestDefaultRailFabricConfigScale pins the acceptance-scale numbers:
// at least 10k endpoints and a million flows.
func TestDefaultRailFabricConfigScale(t *testing.T) {
	cfg := DefaultRailFabricConfig()
	if endpoints := cfg.Rails * cfg.Servers; endpoints < 10000 {
		t.Fatalf("default campaign has %d endpoints, want >= 10000", endpoints)
	}
	if cfg.FlowCount() < 1_000_000 {
		t.Fatalf("default campaign has %d flows, want >= 1M", cfg.FlowCount())
	}
}
