package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"stablerank/internal/vecmat"
)

// Pool snapshots wrap the versioned vecmat matrix codec in a self-contained
// checksummed frame, so a snapshot's integrity travels with its bytes — it
// holds whatever the backend's own checks, and across files copied between
// data directories by operators:
//
//	offset  size  field
//	0       4     magic "SRSN"
//	4       4     snapshot version (uint32, little endian)
//	8       4     CRC-32C of the matrix bytes
//	12      ...   vecmat-encoded matrix (see vecmat.LayoutVersion)
//
// SnapshotLayoutVersion folds both framing versions into one number for
// cache keys: bumping either codec changes the key, so stale snapshots read
// as misses rather than decode errors.

const (
	snapMagic      = "SRSN"
	snapVersion    = 1
	snapHeaderSize = 4 + 4 + 4
)

// SnapshotLayoutVersion identifies the full snapshot byte layout (frame and
// matrix codec); it belongs in every snapshot cache key.
const SnapshotLayoutVersion = snapVersion<<16 | vecmat.LayoutVersion

// EncodeSnapshot frames an encoded sample-pool matrix for persistence.
func EncodeSnapshot(m vecmat.Matrix) []byte {
	body := m.Encode()
	buf := make([]byte, snapHeaderSize+len(body))
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[4:], snapVersion)
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(body, crcTable))
	copy(buf[snapHeaderSize:], body)
	return buf
}

// DecodeSnapshot verifies and decodes a pool snapshot. Framing and checksum
// failures report ErrCorrupt; like vecmat.Decode it never panics on
// arbitrary input, which FuzzSnapshotDecode pins.
func DecodeSnapshot(data []byte) (vecmat.Matrix, error) {
	if len(data) < snapHeaderSize {
		return vecmat.Matrix{}, fmt.Errorf("store: snapshot truncated at %d bytes: %w", len(data), ErrCorrupt)
	}
	if string(data[:4]) != snapMagic {
		return vecmat.Matrix{}, fmt.Errorf("store: bad snapshot magic %q: %w", data[:4], ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return vecmat.Matrix{}, fmt.Errorf("store: unsupported snapshot version %d: %w", v, ErrCorrupt)
	}
	body := data[snapHeaderSize:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(data[8:]); got != want {
		return vecmat.Matrix{}, fmt.Errorf("store: snapshot checksum %08x, want %08x: %w", got, want, ErrCorrupt)
	}
	m, err := vecmat.Decode(body)
	if err != nil {
		return vecmat.Matrix{}, fmt.Errorf("store: snapshot matrix: %v: %w", err, ErrCorrupt)
	}
	return m, nil
}
