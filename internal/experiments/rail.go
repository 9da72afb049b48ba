package experiments

import (
	"fmt"
	"strings"

	"lightpath/internal/netsim"
	"lightpath/internal/route"
	"lightpath/internal/topo"
	"lightpath/internal/unit"
)

// This file is the rail-scale fabric campaign: the Opus follow-on's
// rail-optimized datacenter topology driven at 10k+ endpoints with
// over a million concurrent flows through the component-sharded fluid
// solver (netsim.RunSharded). It is the repo's scale proof — the same
// max-min arithmetic the single-wafer experiments use, three orders
// of magnitude more flows — and its golden CSV is the `make
// rail-smoke` determinism gate: every run must reproduce it byte for
// byte.
//
// Traffic is structured, not random, so the event count stays linear
// in waves rather than flows: each solver component is a ring whose
// flows share links symmetrically, so all flows of one wave complete
// simultaneously and a component with W waves steps through exactly W
// completion events. Random traffic at this scale would make every
// flow a distinct event and turn the fluid solve quadratic.
//
//   - Ring traffic: each rail's first RingServers servers split into
//     groups of GroupSize consecutive servers; each group runs Waves
//     overlaid neighbor rings (wave w moves BaseBytes*(w+1)). A group
//     touches only its own NIC up/down links, so each group is one
//     solver component.
//   - Cross-rail traffic: each of the last XRailServers servers runs
//     Waves rings across its own NICs on all rails, exercising the
//     server-bus hop. Each such server is one component.

// RailFabricConfig parameterizes the rail campaign.
type RailFabricConfig struct {
	// Rails and Servers shape the fabric: Rails*Servers endpoints.
	Rails, Servers int
	// GroupSize is the servers per ring group; (Servers-XRailServers)
	// must divide evenly into groups.
	GroupSize int
	// XRailServers is how many trailing servers carry cross-rail ring
	// traffic instead of in-rail ring traffic.
	XRailServers int
	// Waves is the number of overlaid rings per group; wave w moves
	// BaseBytes*(w+1) per flow.
	Waves int
	// BaseBytes is the wave-0 per-flow transfer size.
	BaseBytes unit.Bytes
	// RailBW and BusBW are the per-NIC and per-server-bus bandwidths.
	RailBW, BusBW unit.BitRate
}

// DefaultRailFabricConfig is the acceptance-scale campaign: 16 rails
// x 640 servers = 10,240 endpoints carrying 1,310,720 flows in 1,272
// independent components.
func DefaultRailFabricConfig() RailFabricConfig {
	return RailFabricConfig{
		Rails:        16,
		Servers:      640,
		GroupSize:    8,
		XRailServers: 8,
		Waves:        128,
		BaseBytes:    unit.MB,
		RailBW:       unit.GBps(40),
		BusBW:        unit.GBps(100),
	}
}

// Validate checks the campaign geometry.
func (c RailFabricConfig) Validate() error {
	switch {
	case c.Rails < 2 || c.Servers < 1:
		return fmt.Errorf("experiments: rail campaign needs >=2 rails and >=1 server, got %dx%d", c.Rails, c.Servers)
	case c.GroupSize < 2:
		return fmt.Errorf("experiments: ring groups need >=2 servers, got %d", c.GroupSize)
	case c.XRailServers < 0 || c.XRailServers >= c.Servers:
		return fmt.Errorf("experiments: %d cross-rail servers out of %d total", c.XRailServers, c.Servers)
	case (c.Servers-c.XRailServers)%c.GroupSize != 0:
		return fmt.Errorf("experiments: %d ring servers do not divide into groups of %d", c.Servers-c.XRailServers, c.GroupSize)
	case c.Waves < 1:
		return fmt.Errorf("experiments: need >=1 wave, got %d", c.Waves)
	case c.BaseBytes <= 0:
		return fmt.Errorf("experiments: non-positive base transfer size")
	case c.RailBW <= 0 || c.BusBW <= 0:
		return fmt.Errorf("experiments: non-positive bandwidth")
	}
	return nil
}

// RingServers returns the servers per rail carrying in-rail rings.
func (c RailFabricConfig) RingServers() int { return c.Servers - c.XRailServers }

// GroupsPerRail returns the ring groups per rail.
func (c RailFabricConfig) GroupsPerRail() int { return c.RingServers() / c.GroupSize }

// Components returns the solver component count the traffic induces:
// one per ring group plus one per cross-rail server.
func (c RailFabricConfig) Components() int {
	return c.Rails*c.GroupsPerRail() + c.XRailServers
}

// FlowCount returns the total flows the campaign places.
func (c RailFabricConfig) FlowCount() int {
	return c.Rails*c.GroupsPerRail()*c.GroupSize*c.Waves + c.XRailServers*c.Rails*c.Waves
}

// RailStat is one rail's ring-traffic aggregate.
type RailStat struct {
	// Rail is the rail index.
	Rail int
	// Groups and Flows count the rail's ring groups and ring flows.
	Groups, Flows int
	// Bytes is the rail's total ring payload.
	Bytes unit.Bytes
	// Makespan is the completion time of the rail's slowest ring flow.
	Makespan unit.Seconds
}

// RailFabricResult aggregates the campaign.
type RailFabricResult struct {
	// Rails, Servers, Endpoints, and Links echo the fabric geometry.
	Rails, Servers, Endpoints, Links int
	// Flows and Components are the solved scale; Waves the overlay
	// depth.
	Flows, Components, Waves int
	// TotalBytes is the full payload moved.
	TotalBytes unit.Bytes
	// Makespan is the global completion time; RingMakespan and
	// XRailMakespan split it by traffic class.
	Makespan, RingMakespan, XRailMakespan unit.Seconds
	// MaxLoadLink and MaxLoadFlows locate the most-shared link.
	MaxLoadLink, MaxLoadFlows int
	// Oversubscribed counts links whose placed flows cannot all be
	// served at the even ring share (RailBW / Waves) — every ring
	// link, by construction, and a sanity signal that the fabric is
	// actually contended.
	Oversubscribed int
	// PerRail holds each rail's ring aggregate.
	PerRail []RailStat
}

// String renders the campaign summary.
func (r RailFabricResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rail fabric: %d rails x %d servers = %d endpoints, %d links\n",
		r.Rails, r.Servers, r.Endpoints, r.Links)
	fmt.Fprintf(&b, "  %d flows in %d components (%d waves), %s moved\n",
		r.Flows, r.Components, r.Waves, r.TotalBytes)
	fmt.Fprintf(&b, "  makespan %v (ring %v, cross-rail %v)\n",
		r.Makespan, r.RingMakespan, r.XRailMakespan)
	fmt.Fprintf(&b, "  peak link load: %d flows on link %d; %d links oversubscribed at even wave-0 split\n",
		r.MaxLoadFlows, r.MaxLoadLink, r.Oversubscribed)
	for _, s := range r.PerRail {
		fmt.Fprintf(&b, "  rail %2d: %d groups, %d flows, %s, makespan %v\n",
			s.Rail, s.Groups, s.Flows, s.Bytes, s.Makespan)
	}
	return b.String()
}

// CSV implements Tabular: one row per rail's ring traffic plus one
// aggregate cross-rail row.
func (r RailFabricResult) CSV() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.PerRail)+1)
	for _, s := range r.PerRail {
		rows = append(rows, []string{
			"ring", fmt.Sprintf("%d", s.Rail),
			fmt.Sprintf("%d", s.Groups),
			fmt.Sprintf("%d", s.Flows),
			f64(s.Bytes),
			f64(s.Makespan.Micros()),
		})
	}
	xFlows := r.Flows
	for _, s := range r.PerRail {
		xFlows -= s.Flows
	}
	var xBytes unit.Bytes = r.TotalBytes
	for _, s := range r.PerRail {
		xBytes -= s.Bytes
	}
	rows = append(rows, []string{
		"xrail", "-1",
		fmt.Sprintf("%d", xFlows/max(1, r.Waves*r.Rails)),
		fmt.Sprintf("%d", xFlows),
		f64(xBytes),
		f64(r.XRailMakespan.Micros()),
	})
	return []string{"class", "rail", "groups", "flows", "bytes", "makespan_us"}, rows
}

// RailFabric places the structured rail traffic and solves it with
// the component-sharded fluid solver. The run is fully deterministic
// — no randomness, and RunSharded solves its components in a fixed
// order — so two invocations with the same config always produce the
// same Result down to the last bit.
func RailFabric(cfg RailFabricConfig) (RailFabricResult, error) {
	if err := cfg.Validate(); err != nil {
		return RailFabricResult{}, err
	}
	fabric, err := topo.NewRail(cfg.Rails, cfg.Servers, cfg.RailBW, cfg.BusBW)
	if err != nil {
		return RailFabricResult{}, err
	}
	a := route.NewLinkAllocator(fabric)

	// Ring traffic: rail-major, group-major, wave-major placement so
	// per-rail flow spans stay contiguous for the aggregation below.
	groups := cfg.GroupsPerRail()
	for rail := 0; rail < cfg.Rails; rail++ {
		for g := 0; g < groups; g++ {
			s0 := g * cfg.GroupSize
			for w := 0; w < cfg.Waves; w++ {
				bytes := cfg.BaseBytes * unit.Bytes(w+1)
				for i := 0; i < cfg.GroupSize; i++ {
					src := fabric.Endpoint(rail, s0+i)
					dst := fabric.Endpoint(rail, s0+(i+1)%cfg.GroupSize)
					a.Place(src, dst, bytes)
				}
			}
		}
	}
	ringFlows := a.Len()
	// Cross-rail traffic: each trailing server rings its own NICs
	// across all rails through the server bus.
	for x := 0; x < cfg.XRailServers; x++ {
		s := cfg.RingServers() + x
		for w := 0; w < cfg.Waves; w++ {
			bytes := cfg.BaseBytes * unit.Bytes(w+1)
			for rail := 0; rail < cfg.Rails; rail++ {
				src := fabric.Endpoint(rail, s)
				dst := fabric.Endpoint((rail+1)%cfg.Rails, s)
				a.Place(src, dst, bytes)
			}
		}
	}

	flows := a.Flows()
	var sim netsim.Sim[int]
	solved, err := sim.RunSharded(flows, a.Capacities())
	if err != nil {
		return RailFabricResult{}, err
	}

	res := RailFabricResult{
		Rails:      cfg.Rails,
		Servers:    cfg.Servers,
		Endpoints:  fabric.Endpoints(),
		Links:      fabric.Links(),
		Flows:      len(flows),
		Components: cfg.Components(),
		Waves:      cfg.Waves,
		Makespan:   solved.Makespan,
	}
	for _, f := range flows {
		res.TotalBytes += f.Bytes
	}
	res.MaxLoadLink, res.MaxLoadFlows = a.MaxLoad()
	res.Oversubscribed = a.OversubscribedLinks(cfg.RailBW / unit.BitRate(cfg.Waves))

	flowsPerRail := groups * cfg.GroupSize * cfg.Waves
	for rail := 0; rail < cfg.Rails; rail++ {
		stat := RailStat{Rail: rail, Groups: groups, Flows: flowsPerRail}
		lo := rail * flowsPerRail
		for i := lo; i < lo+flowsPerRail; i++ {
			stat.Bytes += flows[i].Bytes
			if solved.FlowEnd[i] > stat.Makespan {
				stat.Makespan = solved.FlowEnd[i]
			}
		}
		if stat.Makespan > res.RingMakespan {
			res.RingMakespan = stat.Makespan
		}
		res.PerRail = append(res.PerRail, stat)
	}
	for i := ringFlows; i < len(flows); i++ {
		if solved.FlowEnd[i] > res.XRailMakespan {
			res.XRailMakespan = solved.FlowEnd[i]
		}
	}
	return res, nil
}
