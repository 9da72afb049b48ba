package torus

import (
	"fmt"
)

// Cluster models a TPUv4-style deployment (§4, Figure 5a): identical
// racks, each an electrically-connected torus cube, whose opposite
// faces attach to optical circuit switches (OCSes). Programming the
// OCSes splices racks into larger tori along a dimension; an
// unspliced rack's faces wrap onto itself, making it a standalone
// torus.
//
// Chips have global IDs: rack*RackSize + localIndex. Links between
// chips in the same rack are electrical; links that cross racks (and
// the wrap-around face links of a standalone rack) traverse an OCS.
type Cluster struct {
	rack     *Torus
	numRacks int
	// next[d][r] is the rack whose -d face attaches to rack r's +d
	// face. Default: the rack itself.
	next [][]int
}

// TPUv4RackShape is the paper's rack: a 4x4x4 cube of 64 TPUs.
var TPUv4RackShape = Shape{4, 4, 4}

// TPUv4NumRacks is the paper's cluster scale: "The supercomputer has
// 64 racks" (§4), 4096 chips total.
const TPUv4NumRacks = 64

// ChipsPerServer reflects "16 multi-accelerator servers, each with 4
// TPU chips" per rack (§4): servers are 2x2x1 blocks of the cube.
const ChipsPerServer = 4

// NewCluster builds a cluster of numRacks standalone racks of the
// given shape.
func NewCluster(rackShape Shape, numRacks int) (*Cluster, error) {
	if numRacks <= 0 {
		return nil, fmt.Errorf("torus: cluster needs at least one rack, got %d", numRacks)
	}
	if err := rackShape.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		rack:     New(rackShape),
		numRacks: numRacks,
		next:     make([][]int, rackShape.Dims()),
	}
	for d := range c.next {
		c.next[d] = make([]int, numRacks)
		for r := 0; r < numRacks; r++ {
			c.next[d][r] = r
		}
	}
	return c, nil
}

// NewTPUv4Cluster builds the paper's 64-rack, 4096-chip deployment.
func NewTPUv4Cluster() *Cluster {
	c, err := NewCluster(TPUv4RackShape, TPUv4NumRacks)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	return c
}

// RackSize returns the chips per rack.
func (c *Cluster) RackSize() int { return c.rack.Size() }

// Size returns the total chip count.
func (c *Cluster) Size() int { return c.numRacks * c.rack.Size() }

// GlobalID converts (rack, local chip) to a global chip ID.
func (c *Cluster) GlobalID(rack, chip int) int {
	if rack < 0 || rack >= c.numRacks {
		panic(fmt.Sprintf("torus: rack %d out of range [0, %d)", rack, c.numRacks))
	}
	if chip < 0 || chip >= c.rack.Size() {
		panic(fmt.Sprintf("torus: chip %d out of range [0, %d)", chip, c.rack.Size()))
	}
	return rack*c.rack.Size() + chip
}

// Split converts a global chip ID back to (rack, local chip).
func (c *Cluster) Split(g int) (rack, chip int) {
	if g < 0 || g >= c.Size() {
		panic(fmt.Sprintf("torus: global chip %d out of range [0, %d)", g, c.Size()))
	}
	return g / c.rack.Size(), g % c.rack.Size()
}

// ServerOf returns the server index hosting a local chip: 2x2x1
// blocks of a 3-D rack (16 servers of 4 chips in a 4x4x4 cube). For
// racks that are not 3-D it groups consecutive chips.
func (c *Cluster) ServerOf(chip int) int {
	if c.rack.Dims() == 3 {
		co := c.rack.Coord(chip)
		sx := co[0] / 2
		sy := co[1] / 2
		nz := c.rack.Extent(2)
		nsy := (c.rack.Extent(1) + 1) / 2
		return (sx*nsy+sy)*nz + co[2]
	}
	return chip / ChipsPerServer
}

// ServerChips returns the local chips of the given server.
func (c *Cluster) ServerChips(server int) []int {
	var chips []int
	for i := 0; i < c.rack.Size(); i++ {
		if c.ServerOf(i) == server {
			chips = append(chips, i)
		}
	}
	return chips
}

// Join programs the OCSes of dimension d so the given racks form a
// larger torus along d in sequence order: rack seq[i]'s +d face
// splices to seq[i+1]'s -d face, wrapping from the last back to the
// first. Every rack must currently be standalone in d (its faces wrap
// to itself), so a rack joins a dimension at most once.
func (c *Cluster) Join(d int, seq []int) error {
	if d < 0 || d >= c.rack.Dims() {
		return fmt.Errorf("torus: dimension %d out of range", d)
	}
	if len(seq) < 2 {
		return fmt.Errorf("torus: joining needs at least two racks, got %d", len(seq))
	}
	seen := make(map[int]bool, len(seq))
	for _, r := range seq {
		if r < 0 || r >= c.numRacks {
			return fmt.Errorf("torus: rack %d out of range [0, %d)", r, c.numRacks)
		}
		if seen[r] {
			return fmt.Errorf("torus: rack %d appears twice in join sequence", r)
		}
		seen[r] = true
		if c.next[d][r] != r {
			return fmt.Errorf("torus: rack %d already joined along dimension %d", r, d)
		}
	}
	for i, r := range seq {
		c.next[d][r] = seq[(i+1)%len(seq)]
	}
	return nil
}
