package snapshot

import (
	"bytes"
	"strings"
	"testing"
)

type digestInner struct {
	A int8
	B [2]uint16
}

type digestConfig struct {
	I   int
	I32 int32
	U   uint64
	U8  uint8
	F   float64
	F32 float32
	In  digestInner
	Arr [2]digestInner
	// Skipped is left out of the digest.
	Skipped int `snapshot:"-"`
	// The remaining integer kinds.
	I16  int16
	I64  int64
	Uint uint
	U16  uint16
	U32  uint32
	Ptr  uintptr
}

// TestDigestWordsInDeclarationOrder checks the walk against the words
// a hand-written digest would list: one fixed 8-byte word per leaf, in
// field order, arrays element by element and nested structs in place.
func TestDigestWordsInDeclarationOrder(t *testing.T) {
	c := digestConfig{
		I: -3, I32: 7, U: 1 << 63, U8: 200, F: 0.1, F32: 1.5,
		In:      digestInner{A: -1, B: [2]uint16{2, 3}},
		Arr:     [2]digestInner{{A: 4, B: [2]uint16{5, 6}}, {A: 7, B: [2]uint16{8, 9}}},
		Skipped: 99,
	}
	var e Encoder
	e.I64(-3)
	e.I64(7)
	e.U64(1 << 63)
	e.U64(200)
	e.F64(0.1)
	e.F64(1.5)
	for _, w := range []int64{-1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0, 0, 0, 0} {
		e.I64(w)
	}
	if got := Digest(c); !bytes.Equal(got, e.Bytes()) {
		t.Fatalf("Digest = %x\nwant     %x", got, e.Bytes())
	}
}

// TestDigestMovesWithEachKind perturbs one leaf of each supported kind
// and requires a different digest; the skipped field must not move it.
func TestDigestMovesWithEachKind(t *testing.T) {
	base := digestConfig{}
	ref := Digest(base)
	for name, mut := range map[string]func(*digestConfig){
		"int":          func(c *digestConfig) { c.I = 1 },
		"int32":        func(c *digestConfig) { c.I32 = -1 },
		"uint64":       func(c *digestConfig) { c.U = 1 },
		"uint8":        func(c *digestConfig) { c.U8 = 1 },
		"float64":      func(c *digestConfig) { c.F = 1e-300 },
		"float32":      func(c *digestConfig) { c.F32 = 1 },
		"nested":       func(c *digestConfig) { c.In.A = 1 },
		"nested array": func(c *digestConfig) { c.In.B[1] = 1 },
		"array elem":   func(c *digestConfig) { c.Arr[1].B[0] = 1 },
		"int16":        func(c *digestConfig) { c.I16 = 1 },
		"int64":        func(c *digestConfig) { c.I64 = 1 },
		"uint":         func(c *digestConfig) { c.Uint = 1 },
		"uint16":       func(c *digestConfig) { c.U16 = 1 },
		"uint32":       func(c *digestConfig) { c.U32 = 1 },
		"uintptr":      func(c *digestConfig) { c.Ptr = 1 },
	} {
		c := base
		mut(&c)
		if bytes.Equal(Digest(c), ref) {
			t.Errorf("%s: digest did not move", name)
		}
	}
	c := base
	c.Skipped = 1
	if !bytes.Equal(Digest(c), ref) {
		t.Error(`a snapshot:"-" field moved the digest`)
	}
	// Swapping two array elements moves the digest: order holds.
	c = base
	c.Arr[0].A = 1
	d := base
	d.Arr[1].A = 1
	if bytes.Equal(Digest(c), Digest(d)) {
		t.Error("array elements are not encoded in order")
	}
}

// TestDigestPanicsOnUnsupportedKind: a kind with no fixed-word
// encoding is a programming error, not a silently skipped field.
func TestDigestPanicsOnUnsupportedKind(t *testing.T) {
	for name, v := range map[string]any{
		"string": struct{ S string }{"x"},
		"slice":  struct{ S []int }{},
		"bool":   struct{ B bool }{},
		"map":    struct{ M map[int]int }{},
		"ptr":    struct{ P *int }{},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "Digest cannot encode") {
					t.Errorf("%s: recover() = %v, want a Digest panic", name, r)
				}
			}()
			Digest(v)
		}()
	}
}
