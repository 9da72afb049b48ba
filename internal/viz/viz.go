// Package viz renders rack allocations and wafer occupancy as ASCII
// diagrams — the textual equivalent of the paper's Figures 5b and 6a,
// used by the CLI's show command and handy when debugging scenarios.
package viz

import (
	"fmt"
	"strings"

	"lightpath/internal/torus"
)

// sliceSymbols indexes slices to single characters: 1-9 then A-Z.
func sliceSymbol(i int) byte {
	switch {
	case i < 0:
		return '.'
	case i < 9:
		return byte('1' + i)
	case i < 9+26:
		return byte('A' + i - 9)
	default:
		return '?'
	}
}

// RackLayers renders a 3-D rack allocation as one grid per Z plane
// (top plane first, matching the paper's cube drawings): each cell is
// the owning slice's symbol, '.' for free chips and 'X' for failed
// ones. Non-3-D tori render as a single plane.
func RackLayers(t *torus.Torus, a *torus.Allocation, failed map[int]bool) string {
	var b strings.Builder
	zDim := t.Dims() - 1
	zExtent := t.Extent(zDim)
	for z := zExtent - 1; z >= 0; z-- {
		if zExtent > 1 {
			fmt.Fprintf(&b, "z=%d\n", z)
		}
		writePlane(&b, t, a, failed, z)
	}
	// Legend.
	for i, s := range a.Slices() {
		fmt.Fprintf(&b, "  %c = %s (%s)\n", sliceSymbol(i), s.Name, s.Shape)
	}
	if len(a.FreeChips()) > 0 {
		fmt.Fprintf(&b, "  . = free (%d chips)\n", len(a.FreeChips()))
	}
	if len(failed) > 0 {
		fmt.Fprintf(&b, "  X = failed (%d chips)\n", len(failed))
	}
	return b.String()
}

// writePlane emits one Y-by-X grid at the given Z (or the whole torus
// when it is not 3-D).
func writePlane(b *strings.Builder, t *torus.Torus, a *torus.Allocation, failed map[int]bool, z int) {
	if t.Dims() < 2 {
		b.WriteString("  ")
		for x := 0; x < t.Extent(0); x++ {
			b.WriteByte(cellSymbol(t, a, failed, torus.Coord{x}))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
		return
	}
	for y := t.Extent(1) - 1; y >= 0; y-- {
		b.WriteString("  ")
		for x := 0; x < t.Extent(0); x++ {
			c := make(torus.Coord, t.Dims())
			c[0], c[1] = x, y
			if t.Dims() >= 3 {
				c[2] = z
			}
			b.WriteByte(cellSymbol(t, a, failed, c))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
}

func cellSymbol(t *torus.Torus, a *torus.Allocation, failed map[int]bool, c torus.Coord) byte {
	chip := t.Index(c)
	if failed[chip] {
		return 'X'
	}
	return sliceSymbol(a.Owner(chip))
}
