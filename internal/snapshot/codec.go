package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the primitive codec snapshot payloads are built from.
// The encoding is deliberately dumb: fixed-width little-endian words
// for numbers, uvarint-prefixed bytes for strings and slices, no
// reflection, no schema. Every layer writes its fields in a fixed
// order and reads them back in the same order; the envelope's CRC and
// the Decoder's sticky bounds checking catch everything else. Dumb is
// the point — a codec with no branching on content cannot be
// nondeterministic, and a decoder that never indexes past its buffer
// cannot panic on a torn file.

// Encoder appends primitive values to a growing payload buffer. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder while keeping its buffer capacity, so a
// long-lived encoder (a wire handler, a checkpoint writer) stops
// allocating once it has seen its largest payload. The slice a prior
// Bytes returned aliases the same storage and is overwritten by
// subsequent appends — callers must copy or consume it first.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U64 appends a fixed-width uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a fixed-width int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as a fixed-width int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits, so every value — NaNs
// and signed zeros included — round-trips exactly.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Unit appends a float64-based unit newtype (unit.Seconds,
// unit.Decibel, ...) by its IEEE-754 bits. The conversion happens
// inside the generic body, so each call site keeps its dimension —
// Encoder.F64's parameter never sees a laundered unit value, which is
// what the unittaint analyzer checks for.
func Unit[T ~float64](e *Encoder, v T) { e.F64(float64(v)) }

// DecodeUnit reads a value written by Unit back into its unit type.
func DecodeUnit[T ~float64](d *Decoder) T { return T(d.F64()) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Len appends a slice or map length as a uvarint; Decoder.Len bounds
// it against the remaining payload.
func (e *Encoder) Len(n int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(n))
}

// String appends a uvarint-prefixed string.
func (e *Encoder) String(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Decoder reads primitive values back out of a payload. Errors are
// sticky: after the first failure every subsequent read returns the
// zero value, so decode sequences can run unchecked and test Err once
// at the end. All failures wrap ErrCorruptSnapshot.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload for reading.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish fails unless the payload was consumed exactly: trailing
// bytes mean the writer and reader disagree about the schema, which
// is as corrupt as a short read.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.fail(fmt.Errorf("%w: %d unconsumed payload bytes", ErrCorruptSnapshot, len(d.buf)-d.off))
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(fmt.Errorf("%w: need %d bytes at offset %d, payload has %d",
			ErrCorruptSnapshot, n, d.off, len(d.buf)))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a fixed-width uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed-width int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool. Any byte other than 0 or 1 is corruption.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bool byte %#02x", ErrCorruptSnapshot, b[0]))
		return false
	}
}

// Len reads a length written by Encoder.Len. The result is bounded by
// the remaining payload size, so a corrupted length can never drive a
// giant allocation or an out-of-range loop. Only the minimal uvarint
// Encoder.Len writes is accepted (a multi-byte one never ends in a
// zero byte), so every payload a Decoder accepts re-encodes to the
// same bytes.
func (d *Decoder) Len() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail(fmt.Errorf("%w: bad uvarint length at offset %d", ErrCorruptSnapshot, d.off))
		return 0
	}
	d.off += n
	if v > uint64(len(d.buf)-d.off) {
		d.fail(fmt.Errorf("%w: length %d exceeds %d remaining payload bytes",
			ErrCorruptSnapshot, v, len(d.buf)-d.off))
		return 0
	}
	return int(v)
}

// String reads a string written by Encoder.String.
func (d *Decoder) String() string { return string(d.StringBytes()) }

// StringBytes reads a string written by Encoder.String and returns its
// bytes, which alias the payload, so a caller can compare them before
// deciding to copy.
func (d *Decoder) StringBytes() []byte { return d.take(d.Len()) }

// CheckDigest reads a config digest written by Encoder.String and
// compares it byte for byte with want, the restoring side's own
// digest: a checkpoint only continues under the exact configuration
// that produced it. A mismatch returns ErrConfigMismatch; a decode
// failure returns the sticky error.
func (d *Decoder) CheckDigest(want []byte) error {
	got := d.StringBytes()
	if d.err != nil {
		return d.err
	}
	if !bytes.Equal(got, want) {
		return ErrConfigMismatch
	}
	return nil
}
