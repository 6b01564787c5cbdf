// Package snapshot implements durable, versioned, checksummed binary
// checkpoints of SBP solver state. A checkpoint captures everything a
// resumed process needs to continue bit-identically to an uninterrupted
// run at the same seed: golden-section bracket entries, membership
// vectors, iteration/sweep counters, the engine configuration, and the
// exact xoshiro RNG stream positions.
//
// The on-disk container is deliberately simple and self-verifying:
//
//	magic(4) | version(4) | payload length(8) | payload | CRC64-ECMA(8)
//
// All header integers are big endian; the payload is the typed
// little-endian state encoding of state.go (a kind tag plus a fixed
// field layout — no gob, no reflection). Writes are atomic and durable:
// the container goes to a temp file in the target directory, is
// fsynced, renamed over the final name, and the directory entry is
// synced, so a crash at any instant leaves either the previous
// checkpoint or the new one — never a torn file. Every read validates
// the magic, version, declared length and checksum before decoding, and
// every failure mode (truncation, corruption, version skew, foreign
// files) is a typed error, never a panic.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
)

const (
	// magic identifies an SBP snapshot container ("SBPS").
	magic uint32 = 0x5342_5053
	// Version is the current container version. Readers refuse other
	// versions with a *VersionError instead of misreading the payload.
	// Version 2 keys the chain's randomness by (phase, sweep, vertex); a
	// version 1 checkpoint holds a position in the older per-worker
	// stream layout, which no longer exists. Version 3 drops the
	// settings only one value ever reached: the search's empty-block
	// switch, reduction factor and golden ratio, and the stream's
	// empty-block switch and work partition. Version 4 stores MDL bits
	// summed from the x·ln x split of the log-likelihood; a version 3
	// checkpoint's bits come from the direct sum and would fail the
	// exact MDL check on restore as if the membership were wrong.
	Version uint32 = 4
	// headerSize is magic + version + payload length.
	headerSize = 16
	// maxPayload bounds a declared payload length; anything larger is a
	// corrupt or hostile header, not a real checkpoint.
	maxPayload = 1 << 32
)

// Typed read failures. Callers distinguish "no checkpoint" (plain
// fs.ErrNotExist from the underlying open) from a damaged one.
var (
	// ErrTruncated reports a container shorter than its header plus its
	// declared payload and trailer.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrChecksum reports payload bytes that do not match the stored
	// CRC64 — bit rot, a torn copy, or tampering.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrMagic reports a file that is not an SBP snapshot at all.
	ErrMagic = errors.New("snapshot: bad magic (not a snapshot file)")
)

// VersionError reports a container written by an incompatible version
// of this package.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: version %d, this build reads version %d", e.Got, e.Want)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// WriteFile atomically writes payload as a snapshot container at path.
// The bytes land in a temp file in the same directory, are fsynced,
// renamed over path, and the directory is synced, so concurrent readers
// and crash recovery always observe a complete old or complete new
// checkpoint.
func WriteFile(path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("snapshot: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename

	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], magic)
	binary.BigEndian.PutUint32(hdr[4:], Version)
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(payload)))
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], crc64.Checksum(payload, crcTable))

	for _, chunk := range [][]byte{hdr[:], payload, sum[:]} {
		if _, err := tmp.Write(chunk); err != nil {
			tmp.Close()
			return fmt.Errorf("snapshot: write %s: %w", tmpName, err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: rename into place: %w", err)
	}
	syncDir(dir) // best effort: the rename itself is already atomic
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Errors are ignored: some filesystems reject directory fsync, and the
// rename is already atomic — durability of the entry is best effort.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// ReadFile reads and verifies a snapshot container, returning the
// payload. Damage is reported as ErrTruncated, ErrChecksum, ErrMagic or
// *VersionError; a missing file surfaces as the underlying fs error
// (check with os.IsNotExist / errors.Is(err, fs.ErrNotExist)).
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unwrap(raw)
}

// Unwrap verifies a snapshot container held in memory and returns its
// payload. Exposed so tests and tools can validate containers without
// touching the filesystem.
func Unwrap(raw []byte) ([]byte, error) {
	if len(raw) < headerSize {
		return nil, ErrTruncated
	}
	if got := binary.BigEndian.Uint32(raw[0:]); got != magic {
		return nil, ErrMagic
	}
	if got := binary.BigEndian.Uint32(raw[4:]); got != Version {
		return nil, &VersionError{Got: got, Want: Version}
	}
	n := binary.BigEndian.Uint64(raw[8:])
	if n > maxPayload {
		return nil, ErrTruncated
	}
	if uint64(len(raw)) < headerSize+n+8 {
		return nil, ErrTruncated
	}
	payload := raw[headerSize : headerSize+n]
	want := binary.BigEndian.Uint64(raw[headerSize+n:])
	if crc64.Checksum(payload, crcTable) != want {
		return nil, ErrChecksum
	}
	return payload, nil
}
