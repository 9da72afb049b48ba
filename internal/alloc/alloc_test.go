package alloc

import (
	"fmt"
	"slices"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/torus"
)

func rack() *torus.Torus { return torus.New(torus.TPUv4RackShape) }

func TestPlacerFirstFit(t *testing.T) {
	p := NewPlacer(rack())
	s1, err := p.Place("a", torus.Shape{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s1.Origin, torus.Coord{0, 0, 0}) {
		t.Fatalf("first slice at %v", s1.Origin)
	}
	s2, err := p.Place("b", torus.Shape{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s2.Origin, torus.Coord{0, 0, 2}) {
		t.Fatalf("second slice at %v", s2.Origin)
	}
	if p.FreeCount() != 64-32-16 {
		t.Fatalf("free = %d", p.FreeCount())
	}
	if len(p.slices) != 2 {
		t.Fatalf("slices = %d", len(p.slices))
	}
}

func TestPlacerRejectsUnrealizableShapes(t *testing.T) {
	p := NewPlacer(rack())
	if _, err := p.Place("bad", torus.Shape{3, 1, 1}); err == nil {
		t.Fatal("extent-3 shape accepted")
	}
	if _, err := p.Place("bad", torus.Shape{4, 2}); err == nil {
		t.Fatal("wrong-dims shape accepted")
	}
}

func TestPlacerFullRack(t *testing.T) {
	p := NewPlacer(rack())
	for i := 0; i < 4; i++ {
		if _, err := p.Place("plane", torus.Shape{4, 4, 1}); err != nil {
			t.Fatalf("plane %d: %v", i, err)
		}
	}
	if p.FreeCount() != 0 {
		t.Fatalf("free = %d, want 0", p.FreeCount())
	}
	if _, err := p.Place("extra", torus.Shape{1, 2, 1}); err == nil {
		t.Fatal("placement on a full rack accepted")
	}
}

func TestPlacerRemove(t *testing.T) {
	p := NewPlacer(rack())
	s, err := p.Place("a", torus.Shape{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Remove(s)
	if p.FreeCount() != 64 {
		t.Fatalf("free after remove = %d", p.FreeCount())
	}
	// The region is reusable.
	if _, err := p.Place("b", torus.Shape{4, 4, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacerRemovePanicsOnUnknown(t *testing.T) {
	p := NewPlacer(rack())
	defer func() {
		if recover() == nil {
			t.Fatal("remove of unplaced slice did not panic")
		}
	}()
	p.Remove(&torus.Slice{Name: "ghost"})
}

func TestPlacerAllocationValidates(t *testing.T) {
	p := NewPlacer(rack())
	if _, err := p.Place("a", torus.Shape{4, 2, 1}); err != nil {
		t.Fatal(err)
	}
	a, err := p.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Slices()) != 1 {
		t.Fatal("allocation lost slices")
	}
}

func TestTenantShapesCatalog(t *testing.T) {
	shapes := TenantShapes(rack())
	if len(shapes) == 0 {
		t.Fatal("empty catalog")
	}
	for _, s := range shapes {
		if s.Size() < 2 {
			t.Fatalf("catalog shape %v too small", s)
		}
		for d, e := range s {
			if e != 1 && e != 2 && e != 4 {
				t.Fatalf("catalog shape %v has bad extent in dim %d", s, d)
			}
		}
	}
	// 3 options per dim, minus the 1x1x1 singleton: 26.
	if len(shapes) != 26 {
		t.Fatalf("catalog size = %d, want 26", len(shapes))
	}
}

func TestRandomTenantsDeterministic(t *testing.T) {
	p1 := NewPlacer(rack())
	p2 := NewPlacer(rack())
	a := RandomTenants(p1, rng.New(99), 10)
	b := RandomTenants(p2, rng.New(99), 10)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d tenants", len(a), len(b))
	}
	for i := range a {
		if !slices.Equal(a[i].Shape, b[i].Shape) || !slices.Equal(a[i].Origin, b[i].Origin) {
			t.Fatalf("tenant %d differs", i)
		}
	}
	if len(a) == 0 {
		t.Fatal("no tenants placed")
	}
	// The placement is a valid allocation.
	if _, err := p1.Allocation(); err != nil {
		t.Fatal(err)
	}
}

func TestFig5bScenario(t *testing.T) {
	tor, a, err := Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.FreeChips()) != 0 {
		t.Fatal("Fig5b rack should be fully allocated")
	}
	if tor.Size() != 64 || len(a.Slices()) != 4 {
		t.Fatalf("rack %d chips, %d slices", tor.Size(), len(a.Slices()))
	}
}

func TestFig6aScenario(t *testing.T) {
	sc, err := Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Alloc.OwnerSlice(sc.FailedChip) != sc.Victim {
		t.Fatal("failed chip not in the victim slice")
	}
	if len(sc.FreeChips) != 8 {
		t.Fatalf("free chips = %d", len(sc.FreeChips))
	}
	// The failed chip is interior: both an X and a Y ring pass
	// through it.
	c := sc.Torus.Coord(sc.FailedChip)
	if c[2] != 2 {
		t.Fatalf("failed chip at %v, want z=2", c)
	}
}

func TestFig6bScenario(t *testing.T) {
	sc, err := Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Allocs) != 2 {
		t.Fatal("want two racks")
	}
	if len(sc.Allocs[0].FreeChips()) != 0 {
		t.Fatal("rack 1 should be fully allocated")
	}
	if len(sc.FreeChips) != 4 {
		t.Fatalf("rack 2 free chips = %d, want 4", len(sc.FreeChips))
	}
	if v := sc.Allocs[0].OwnerSlice(sc.FailedChip); v == nil || v.Name != "Slice-2" {
		t.Fatal("failed chip not in the victim Slice-2")
	}
	// The victim sits on rack 1's top face: its only way out is Z.
	if c := sc.RackTorus.Coord(sc.FailedChip); c[2] != 3 {
		t.Fatalf("failed chip at %v, want z=3", c)
	}
}

// Remove releases a previously placed slice.
func (p *Placer) Remove(s *torus.Slice) {
	for i, placed := range p.slices {
		if placed == s {
			for _, chip := range s.Chips(p.t) {
				p.occupied[chip] = false
			}
			p.slices = append(p.slices[:i], p.slices[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("alloc: remove of unplaced slice %q", s.Name))
}
