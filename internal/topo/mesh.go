package topo

import (
	"fmt"

	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Mesh cascades W LIGHTPATH wafers into a full mesh: every wafer pair
// is joined by a dedicated trunk of attached fibers in each direction
// (§4.2's "10s of fibers across servers"). Endpoints are tiles;
// endpoint id = wafer*tiles + tile, with tiles per wafer from the
// wafer config. Intra-wafer reach is
// modeled through each tile's laser-limited egress/ingress (the wafer
// fabric itself is circuit-switched and non-blocking once lasers are
// committed), so a path is:
//
//	same wafer:  [up(src), down(dst)]
//	cross wafer: [up(src), trunk(w1 -> w2), down(dst)]
//
// Link-id layout, with E = Endpoints() and W wafers:
//
//	up(e)    = e                          tile egress    capacity TileEgress
//	down(e)  = E + e                      tile ingress   capacity TileEgress
//	trunk    = 2E + w1*(W-1) + i          wafer trunk    capacity TrunkBW
//
// where i counts w2 over [0, W) skipping w1 — ordered wafer pairs
// pack densely with no self-trunk ids.
type Mesh struct {
	wafers  int
	cfg     wafer.Config
	egress  unit.BitRate
	trunkBW unit.BitRate
}

// NewMesh constructs a full mesh of wafers with the given per-wafer
// geometry and per-direction trunk bandwidth.
func NewMesh(wafers int, cfg wafer.Config, trunkBW unit.BitRate) (*Mesh, error) {
	if wafers <= 0 {
		return nil, fmt.Errorf("topo: need at least one wafer, got %d", wafers)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trunkBW <= 0 {
		return nil, fmt.Errorf("topo: non-positive trunk bandwidth")
	}
	return &Mesh{wafers: wafers, cfg: cfg, egress: cfg.TileEgress(), trunkBW: trunkBW}, nil
}

// Name returns "mesh".
func (m *Mesh) Name() string { return "mesh" }

// Endpoints returns the wafer count times the tiles per wafer.
func (m *Mesh) Endpoints() int { return m.wafers * m.cfg.Tiles() }

// Links returns 2*Endpoints() + W*(W-1) for W wafers: an up and a
// down link per tile plus one trunk per ordered wafer pair.
func (m *Mesh) Links() int { return 2*m.Endpoints() + m.wafers*(m.wafers-1) }

// LinkCapacity returns TileEgress for tile up/down links and the
// trunk bandwidth for inter-wafer trunks.
func (m *Mesh) LinkCapacity(link int) unit.BitRate {
	if link < 2*m.Endpoints() {
		return m.egress
	}
	return m.trunkBW
}

// Trunk returns the link id of the w1 -> w2 trunk. It panics when
// w1 == w2 or either wafer is out of range.
func (m *Mesh) Trunk(w1, w2 int) int {
	if w1 == w2 || w1 < 0 || w2 < 0 || w1 >= m.wafers || w2 >= m.wafers {
		panic(fmt.Sprintf("topo: bad trunk %d -> %d on %d-wafer mesh", w1, w2, m.wafers))
	}
	i := w2
	if w2 > w1 {
		i--
	}
	return 2*m.Endpoints() + w1*(m.wafers-1) + i
}

// AppendPath appends the links of the route from src to dst: tile
// egress, the inter-wafer trunk when the wafers differ, tile ingress.
func (m *Mesh) AppendPath(buf []int, src, dst int) []int {
	checkEndpoint(m, src)
	checkEndpoint(m, dst)
	if src == dst {
		return buf
	}
	e := m.Endpoints()
	t := m.cfg.Tiles()
	w1, w2 := src/t, dst/t
	buf = append(buf, src)
	if w1 != w2 {
		buf = append(buf, m.Trunk(w1, w2))
	}
	return append(buf, e+dst)
}
