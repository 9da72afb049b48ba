package snapshot

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// This file is the durability half of the package: snapshots reach
// disk through write-temp → fsync → rename, and the previous good
// generation is rotated to a ".prev" sibling before each write. The
// two moves give a crash at ANY instant a loadable snapshot: either
// the rename has not happened and the old file (or its rotation) is
// intact, or it has and the new file is complete — rename is atomic
// on POSIX filesystems. Load validates the envelope and falls back to
// the rotation when the primary is corrupt, so a torn write costs the
// checkpoints since the last complete one, never the run. Write is
// synchronous; internal/evloop runs it on a goroutine of its own, one
// write at a time, while the event loop runs on.

// prevSuffix names the rotated previous-generation snapshot.
const prevSuffix = ".prev"

// tmpSuffix names the in-flight temporary file Write replaces
// atomically. A crash can leave one behind; Write truncates it.
const tmpSuffix = ".tmp"

// PrevPath returns the rotation sibling of a snapshot path.
func PrevPath(path string) string { return path + prevSuffix }

// Write seals the payload and persists it to path with torn-write
// protection: the current file (if any) is first rotated to
// PrevPath(path), then the new snapshot is written to a temporary
// sibling, fsynced, and renamed over path, and the directory is
// fsynced so the rename itself is durable.
func Write(path string, version uint32, payload []byte) error {
	data := Seal(version, payload)
	// Rotate the previous generation. A missing current file (first
	// checkpoint of a run) is fine; any other rename failure is not.
	if err := os.Rename(path, PrevPath(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("snapshot: rotate %s: %w", path, err)
	}
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("snapshot: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("snapshot: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: publish %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power
// loss. Filesystems that refuse to fsync directories are tolerated —
// the rename is still atomic, just not yet durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: open dir %s: %w", dir, err)
	}
	_ = d.Sync()
	if err := d.Close(); err != nil {
		return fmt.Errorf("snapshot: close dir %s: %w", dir, err)
	}
	return nil
}

// Read loads and validates the snapshot at path. A missing file
// returns the fs.ErrNotExist it came with; a present-but-invalid file
// returns an error wrapping ErrCorruptSnapshot.
func Read(path string) (version uint32, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	version, payload, err = Open(data)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return version, payload, nil
}

// Load reads the snapshot at path, falling back to the rotated
// previous generation when the primary is corrupt or torn. It returns
// which file actually loaded so callers can report the fallback. Only
// when both generations fail does it return an error: the primary's,
// with the fallback's attached.
func Load(path string) (version uint32, payload []byte, loadedFrom string, err error) {
	version, payload, err = Read(path)
	if err == nil {
		return version, payload, path, nil
	}
	prev := PrevPath(path)
	pv, pp, perr := Read(prev)
	if perr == nil {
		return pv, pp, prev, nil
	}
	return 0, nil, "", fmt.Errorf("%w (fallback %s: %v)", err, prev, perr)
}
