package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotRoundTrip is the codec's adversarial gate, covering
// both directions of the trust boundary:
//
//   - encode→decode: a payload built from the fuzzed primitive values
//     seals, opens, and decodes back to exactly the inputs;
//   - decode-hostile: the same sealed bytes, truncated at the fuzzed
//     offset or bit-flipped at the fuzzed position, are rejected with
//     ErrCorruptSnapshot — never a panic and never a silent partial
//     decode;
//   - raw bytes: the mutated input itself fed straight to Open either
//     opens cleanly or fails typed; whatever happens, it must not
//     panic.
//
// The committed corpus in testdata/fuzz seeds the interesting shapes:
// empty payloads, huge declared lengths, magic-only prefixes.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), 0.0, false, "", uint32(0), 0, 0)
	f.Add(uint64(1), int64(-1), -0.0, true, "fleet", uint32(1), 3, 7)
	f.Add(^uint64(0), int64(1)<<62, 1e300, true, "checkpoint/rotation", uint32(9), 17, 63)
	f.Add(uint64(0xfeedface), int64(-1)<<40, 0.1, false, "\x00\xff\r\n", uint32(2), 5, 1)

	f.Fuzz(func(t *testing.T, u uint64, i int64, fv float64, b bool, s string, version uint32, cut, flip int) {
		var e Encoder
		e.U64(u)
		e.I64(i)
		e.F64(fv)
		e.Bool(b)
		e.String(s)
		payload := e.Bytes()
		sealed := Seal(version, payload)

		// Forward direction: exact recovery.
		v, got, err := Open(sealed)
		if err != nil {
			t.Fatalf("pristine snapshot rejected: %v", err)
		}
		if v != version || !bytes.Equal(got, payload) {
			t.Fatalf("payload round trip: version %d->%d, %d->%d bytes", version, v, len(payload), len(got))
		}
		d := NewDecoder(got)
		if du, di, df, db, ds := d.U64(), d.I64(), d.F64(), d.Bool(), d.String(); du != u || di != i || db != b || ds != s ||
			(df != fv && !(df != df && fv != fv)) { // NaN round-trips as NaN
			t.Fatalf("decode mismatch: %v %v %v %v %q", du, di, df, db, ds)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}

		// Every truncation is rejected, typed.
		if n := len(sealed); n > 0 {
			c := cut % n
			if c < 0 {
				c = -c
			}
			trunc := sealed[:c]
			if _, _, err := Open(trunc); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("truncation to %d bytes accepted: %v", len(trunc), err)
			}
		}

		// Every single-bit flip is rejected, typed.
		mut := append([]byte(nil), sealed...)
		pos := flip % (len(mut) * 8)
		if pos < 0 {
			pos = -pos
		}
		mut[pos/8] ^= 1 << (pos % 8)
		if _, _, err := Open(mut); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("bit flip at %d accepted: %v", pos, err)
		}

		// A hostile decoder walk over the flipped payload region must
		// never panic; errors are fine and must be typed.
		hd := NewDecoder(mut)
		for hd.Err() == nil && hd.off < len(hd.buf) {
			_ = hd.U64()
			_ = hd.Bool()
			_ = hd.String()
			_ = hd.Len()
		}
		if hd.Err() != nil && !errors.Is(hd.Err(), ErrCorruptSnapshot) {
			t.Fatalf("decoder error not typed: %v", hd.Err())
		}
	})
}
