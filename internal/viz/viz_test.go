package viz

import (
	"strings"
	"testing"

	"lightpath/internal/alloc"
	"lightpath/internal/torus"
)

func TestRackLayersFig5b(t *testing.T) {
	tor, a, err := alloc.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	out := RackLayers(tor, a, nil)
	// Four Z planes, top first.
	if !strings.Contains(out, "z=3") || !strings.Contains(out, "z=0") {
		t.Fatalf("missing planes:\n%s", out)
	}
	if strings.Index(out, "z=3") > strings.Index(out, "z=0") {
		t.Fatal("planes not top-first")
	}
	// The z=3 plane holds Slice-1 ('1') and Slice-2 ('2'); z=0 holds
	// Slice-4 ('4').
	planes := strings.Split(out, "z=")
	if !strings.Contains(planes[1], "1 1 1 1") || !strings.Contains(planes[1], "2 2 2 2") {
		t.Fatalf("z=3 plane wrong:\n%s", planes[1])
	}
	if !strings.Contains(planes[4], "4 4 4 4") {
		t.Fatalf("z=0 plane wrong:\n%s", planes[4])
	}
	// Legend names every slice.
	for _, name := range []string{"Slice-1", "Slice-2", "Slice-3", "Slice-4"} {
		if !strings.Contains(out, name) {
			t.Fatalf("legend missing %s", name)
		}
	}
	// A full rack shows no free marker.
	if strings.Contains(out, "= free") {
		t.Fatal("full rack claims free chips")
	}
}

func TestRackLayersFailuresAndFree(t *testing.T) {
	sc, err := alloc.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	out := RackLayers(sc.Torus, sc.Alloc, map[int]bool{sc.FailedChip: true})
	if !strings.Contains(out, "X") || !strings.Contains(out, "= failed (1 chips)") {
		t.Fatalf("failed chip not rendered:\n%s", out)
	}
	if !strings.Contains(out, "= free (8 chips)") {
		t.Fatalf("free chips not rendered:\n%s", out)
	}
}

func TestRackLayersLowDims(t *testing.T) {
	// 1-D and 2-D tori render without panicking.
	t1 := torus.New(torus.Shape{4})
	a1, _ := torus.NewAllocation(t1, []*torus.Slice{
		{Name: "line", Origin: torus.Coord{0}, Shape: torus.Shape{2}},
	})
	if out := RackLayers(t1, a1, nil); !strings.Contains(out, "1 1 . .") {
		t.Fatalf("1-D render:\n%s", out)
	}
	t2 := torus.New(torus.Shape{2, 2})
	a2, _ := torus.NewAllocation(t2, nil)
	if out := RackLayers(t2, a2, nil); !strings.Contains(out, ". .") {
		t.Fatalf("2-D render:\n%s", out)
	}
}

func TestSliceSymbolRange(t *testing.T) {
	if sliceSymbol(-1) != '.' || sliceSymbol(0) != '1' || sliceSymbol(8) != '9' {
		t.Fatal("digit symbols wrong")
	}
	if sliceSymbol(9) != 'A' || sliceSymbol(34) != 'Z' {
		t.Fatal("letter symbols wrong")
	}
	if sliceSymbol(35) != '?' {
		t.Fatal("overflow symbol wrong")
	}
}
