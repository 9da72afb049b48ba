// Package snapshot is the crash-tolerance substrate of the simulator:
// a versioned, self-describing binary envelope plus the primitive
// codec every stateful layer (wafer health, the route allocator, the
// fleet soak) uses to serialize itself at a deterministic event
// boundary and come back byte-identical after a process death.
//
// The envelope is deliberately paranoid about torn writes. A snapshot
// file carries a fixed magic, a format version, an explicit payload
// length and a CRC32-C trailer over everything before it, so any
// truncation, bit flip or partially flushed write is detected at load
// time and reported as ErrCorruptSnapshot — never a panic, never a
// silently half-restored state. Persistence is write-temp → fsync →
// rename, with the previous good snapshot kept as a ".prev" rotation
// so a fault during the write of generation N still leaves generation
// N-1 loadable.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorruptSnapshot reports that snapshot bytes failed validation:
// bad magic, unknown version, truncation, a length that disagrees
// with the file, or a CRC mismatch. Every decode failure in this
// package wraps it, so callers gate fallback-and-recover behavior on
// a single errors.Is check.
var ErrCorruptSnapshot = errors.New("snapshot: corrupt or truncated snapshot")

// ErrConfigMismatch reports a checkpoint written under a different
// configuration than the one restoring it. Continuing it would
// silently break determinism instead of continuing the run, so
// Decoder.CheckDigest refuses it.
var ErrConfigMismatch = errors.New("snapshot: checkpoint config does not match")

// magic opens every snapshot file. The CR-LF pair catches ASCII-mode
// transfer mangling, the same trick PNG's magic uses.
var magic = [8]byte{'L', 'P', 'S', 'N', 'A', 'P', '\r', '\n'}

// headerSize is magic + version + payload length.
const headerSize = 8 + 4 + 4

// trailerSize is the CRC32-C of header+payload.
const trailerSize = 4

// castagnoli is the CRC32-C table; Castagnoli's polynomial has better
// burst-error detection than IEEE and hardware support on modern CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps a payload in the snapshot envelope: magic, format
// version, payload length, payload, CRC32-C trailer.
func Seal(version uint32, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload)+trailerSize)
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[8:], version)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(payload)))
	copy(out[headerSize:], payload)
	sum := crc32.Checksum(out[:headerSize+len(payload)], castagnoli)
	binary.LittleEndian.PutUint32(out[headerSize+len(payload):], sum)
	return out
}

// Open validates a sealed snapshot and returns its format version and
// payload. Any defect — short file, wrong magic, impossible length,
// trailing garbage, CRC mismatch — returns an error wrapping
// ErrCorruptSnapshot.
func Open(data []byte) (version uint32, payload []byte, err error) {
	if len(data) < headerSize+trailerSize {
		return 0, nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte envelope",
			ErrCorruptSnapshot, len(data), headerSize+trailerSize)
	}
	if [8]byte(data[:8]) != magic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, data[:8])
	}
	version = binary.LittleEndian.Uint32(data[8:])
	n := int(binary.LittleEndian.Uint32(data[12:]))
	if n < 0 || headerSize+n+trailerSize != len(data) {
		return 0, nil, fmt.Errorf("%w: declared payload %d bytes, file holds %d",
			ErrCorruptSnapshot, n, len(data)-headerSize-trailerSize)
	}
	want := binary.LittleEndian.Uint32(data[headerSize+n:])
	got := crc32.Checksum(data[:headerSize+n], castagnoli)
	if got != want {
		return 0, nil, fmt.Errorf("%w: CRC32C %08x, trailer says %08x",
			ErrCorruptSnapshot, got, want)
	}
	return version, data[headerSize : headerSize+n], nil
}
