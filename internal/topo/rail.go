package topo

import (
	"fmt"

	"lightpath/internal/unit"
)

// Rail is the rail-optimized fabric of the Opus follow-on: Rails
// parallel flat networks ("rails"), each a non-blocking switch
// connecting one NIC from every server, and Servers servers each
// holding one NIC per rail. The endpoint (r, s) is server s's NIC on
// rail r; accelerators co-located in a server reach a different rail
// over the server's internal bus (PCIe/NVLink in Opus, the photonic
// server-scale substrate in this repo's reading of the paper).
//
// Link-id layout, with E = Rails*Servers endpoints:
//
//	up(e)   = e        NIC e -> its rail switch   capacity RailBW
//	down(e) = E + e    rail switch -> NIC e       capacity RailBW
//	bus(s)  = 2E + s   server s internal bus      capacity BusBW
//
// Paths: a same-rail transfer crosses [up(src), down(dst)] — the rail
// switch itself is non-blocking, so only the two NIC links carry the
// flow. A cross-rail transfer from (r1, s1) to (r2, s2) first crosses
// server s1's internal bus to the co-located NIC on rail r2, then
// rides rail r2: [bus(s1), up(r2, s1), down(dst)].
type Rail struct {
	rails, servers int
	railBW, busBW  unit.BitRate
}

// NewRail constructs a rail fabric of rails × servers endpoints with
// the given per-NIC rail bandwidth and per-server bus bandwidth.
func NewRail(rails, servers int, railBW, busBW unit.BitRate) (*Rail, error) {
	switch {
	case rails <= 0 || servers <= 0:
		return nil, fmt.Errorf("topo: bad rail fabric %d rails x %d servers", rails, servers)
	case railBW <= 0 || busBW <= 0:
		return nil, fmt.Errorf("topo: non-positive rail fabric bandwidth")
	}
	return &Rail{rails: rails, servers: servers, railBW: railBW, busBW: busBW}, nil
}

// Name returns "rail".
func (r *Rail) Name() string { return "rail" }

// Endpoints returns rails * servers; endpoint ids are rail-major:
// id = rail*servers + server.
func (r *Rail) Endpoints() int { return r.rails * r.servers }

// Endpoint returns the id of server s's NIC on rail rl.
func (r *Rail) Endpoint(rl, s int) int { return rl*r.servers + s }

// Links returns 2*Endpoints() + servers: an up and a down link per
// NIC plus one internal bus per server.
func (r *Rail) Links() int { return 2*r.Endpoints() + r.servers }

// LinkCapacity returns RailBW for up/down NIC links and BusBW for
// server buses.
func (r *Rail) LinkCapacity(link int) unit.BitRate {
	if link < 2*r.Endpoints() {
		return r.railBW
	}
	return r.busBW
}

// AppendPath appends the links of the deterministic route from src to
// dst. Endpoint ids are rail-major; see the type comment for the
// path shapes.
func (r *Rail) AppendPath(buf []int, src, dst int) []int {
	checkEndpoint(r, src)
	checkEndpoint(r, dst)
	if src == dst {
		return buf
	}
	e := r.Endpoints()
	r1, s1 := src/r.servers, src%r.servers
	r2 := dst / r.servers
	if r1 == r2 {
		return append(buf, src, e+dst)
	}
	return append(buf, 2*e+s1, r2*r.servers+s1, e+dst)
}
