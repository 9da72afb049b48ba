package snapshot

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestCodecRoundTrip drives every primitive through an encode/decode
// cycle and demands exact recovery, including the float edge cases a
// text codec would mangle.
func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U64(0)
	e.U64(^uint64(0))
	e.I64(-1)
	e.Int(-1 << 40)
	e.F64(0.1)
	e.F64(math.Copysign(0, -1))
	e.Bool(true)
	e.Bool(false)
	e.Len(3)
	e.String("")
	e.String("fleet/mttr")

	d := NewDecoder(e.Bytes())
	if got := d.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.U64(); got != ^uint64(0) {
		t.Errorf("U64 max = %d", got)
	}
	if got := d.I64(); got != -1 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != -1<<40 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 0.1 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); got != 0 || !signbit(got) {
		t.Errorf("F64 -0.0 = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Len(); got != 3 {
		t.Errorf("Len = %d", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := d.String(); got != "fleet/mttr" {
		t.Errorf("String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func signbit(f float64) bool { return 1/f < 0 }

// TestDecoderSticky verifies that the first failure wins and poisons
// every later read, so unchecked decode sequences cannot act on
// garbage.
func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	_ = d.U64() // needs 8 bytes, fails
	if d.Err() == nil {
		t.Fatal("short U64 not detected")
	}
	first := d.Err()
	if got := d.Int(); got != 0 {
		t.Errorf("read after failure returned %d", got)
	}
	if !errors.Is(d.Err(), ErrCorruptSnapshot) {
		t.Errorf("error %v does not wrap ErrCorruptSnapshot", d.Err())
	}
	if d.Err() != first {
		t.Error("later failure replaced the first")
	}
}

// TestFinishRejectsTrailingBytes: extra payload is a schema mismatch,
// reported as corruption.
func TestFinishRejectsTrailingBytes(t *testing.T) {
	var e Encoder
	e.U64(7)
	e.U64(8)
	d := NewDecoder(e.Bytes())
	_ = d.U64()
	if err := d.Finish(); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Finish on partial consumption: %v", err)
	}
}

// TestLenRejectsOverlongUvarint: only the minimal encoding Encoder.Len
// writes decodes, so accepted payloads re-encode to the same bytes.
func TestLenRejectsOverlongUvarint(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300} {
		var e Encoder
		e.Len(n)
		e.buf = append(e.buf, make([]byte, n)...)
		if got := NewDecoder(e.Bytes()).Len(); got != n {
			t.Fatalf("minimal length %d decoded as %d", n, got)
		}
	}
	for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x00, 0}, {0x80, 0x81, 0x00}} {
		d := NewDecoder(b)
		if d.Len(); !errors.Is(d.Err(), ErrCorruptSnapshot) {
			t.Errorf("overlong uvarint %x accepted", b)
		}
	}
}

// TestCheckDigest pins the config gate's three outcomes: a match, a
// mismatch (ErrConfigMismatch) and a torn digest (corruption).
func TestCheckDigest(t *testing.T) {
	var e Encoder
	e.String("cfg-a")
	if err := NewDecoder(e.Bytes()).CheckDigest([]byte("cfg-a")); err != nil {
		t.Fatalf("matching digest: %v", err)
	}
	if err := NewDecoder(e.Bytes()).CheckDigest([]byte("cfg-b")); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("different digest: %v, want ErrConfigMismatch", err)
	}
	if err := NewDecoder(e.Bytes()[:3]).CheckDigest([]byte("cfg-a")); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("torn digest: %v, want ErrCorruptSnapshot", err)
	}
}

// TestEnvelopeRejectsEveryMutation seals a payload and verifies that
// truncation at every length and a bit flip at every byte position is
// rejected with ErrCorruptSnapshot.
func TestEnvelopeRejectsEveryMutation(t *testing.T) {
	var e Encoder
	e.U64(0xfeedface)
	e.String("checkpoint")
	sealed := Seal(3, e.Bytes())

	if v, p, err := Open(sealed); err != nil || v != 3 || len(p) != len(e.Bytes()) {
		t.Fatalf("pristine snapshot rejected: v=%d err=%v", v, err)
	}
	for n := 0; n < len(sealed); n++ {
		if _, _, err := Open(sealed[:n]); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
	for i := range sealed {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= 1 << bit
			if _, _, err := Open(mut); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("bit flip at byte %d bit %d: %v", i, bit, err)
			}
		}
	}
}

// TestWriteLoadRotation exercises the full persistence cycle: write
// two generations, corrupt the primary, and verify Load falls back to
// the rotation.
func TestWriteLoadRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.ckpt")

	if err := Write(path, 1, []byte("gen-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(PrevPath(path)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rotation exists after first write: %v", err)
	}
	if err := Write(path, 1, []byte("gen-2")); err != nil {
		t.Fatal(err)
	}

	v, p, from, err := Load(path)
	if err != nil || v != 1 || string(p) != "gen-2" || from != path {
		t.Fatalf("Load = %d %q %q %v", v, p, from, err)
	}
	// The rotation holds generation 1.
	if _, p, err := Read(PrevPath(path)); err != nil || string(p) != "gen-1" {
		t.Fatalf("rotation = %q %v", p, err)
	}

	// Tear the primary mid-file; Load must fall back, not fail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	v, p, from, err = Load(path)
	if err != nil || v != 1 || string(p) != "gen-1" || from != PrevPath(path) {
		t.Fatalf("fallback Load = %d %q %q %v", v, p, from, err)
	}

	// Corrupt both generations: now Load must fail with the typed error.
	if err := os.WriteFile(PrevPath(path), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Load(path); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("double corruption: %v", err)
	}
}

// TestLoadMissing: a snapshot that never existed is not corruption —
// it surfaces as fs.ErrNotExist so callers can distinguish "fresh
// start" from "damaged state".
func TestLoadMissing(t *testing.T) {
	_, _, _, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}
	if errors.Is(err, ErrCorruptSnapshot) {
		t.Fatal("missing snapshot misreported as corrupt")
	}
}
