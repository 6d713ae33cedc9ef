// Package store is the persistence subsystem behind stablerankd's durable
// state: the dataset catalog, the Monte-Carlo pool-snapshot cache, and the
// async-job records. It deliberately exposes a tiny namespaced
// key-value contract — Put/Get/Delete/Entries over (namespace, key) pairs —
// so the durable layers above it stay backend-agnostic: FileStore keeps one
// checksummed file per entry on the local filesystem (zero new
// dependencies), and a B-tree backend such as bbolt can slot in behind the
// same interface when single-file packing matters. A server without a data
// directory has no store at all.
//
// Integrity is part of the contract, not an afterthought: every persisted
// value carries a CRC of its payload, Get verifies it on the way out, and a
// mismatch quarantines the entry (it stops being visible, the bytes are kept
// aside for inspection) and reports ErrCorrupt so callers rebuild instead of
// consuming garbage. ProvSQL's persistence of derived provenance artifacts
// alongside base data motivates the same discipline here: a snapshot is a
// cache of an expensive deterministic computation, so the only acceptable
// failure mode is "recompute", never "crash" or "serve corrupt samples".
package store

import (
	"errors"
	"time"
)

// Well-known namespaces used by the server's durable layers. Namespace names
// must be non-empty lowercase [a-z0-9_-] so every backend can map them to a
// directory or bucket verbatim.
const (
	NSDatasets = "datasets"
	NSPools    = "pools"
	NSJobs     = "jobs"
)

// Sentinel errors of the Store contract.
var (
	// ErrNotFound reports that the (namespace, key) pair has no value.
	ErrNotFound = errors.New("store: key not found")
	// ErrCorrupt reports that a value failed its integrity check; the entry
	// has been quarantined and subsequent Gets return ErrNotFound.
	ErrCorrupt = errors.New("store: value failed integrity check")
)

// Entry describes one stored value, as reported by Entries.
type Entry struct {
	Key     string
	Bytes   int64     // size as accounted by SizeBytes (envelope included)
	ModTime time.Time // last write time, the eviction ordering key
}

// Store is the pluggable persistence contract. Implementations must be safe
// for concurrent use; Put must be atomic (a reader never observes a torn
// value) and Get must verify integrity, returning ErrCorrupt — after
// quarantining the entry — rather than a damaged value.
type Store interface {
	// Put durably stores value under (ns, key), replacing any previous value.
	Put(ns, key string, value []byte) error
	// Get returns the value stored under (ns, key), ErrNotFound when absent,
	// or ErrCorrupt when the stored bytes fail verification.
	Get(ns, key string) ([]byte, error)
	// Delete removes (ns, key); deleting an absent key is not an error.
	Delete(ns, key string) error
	// Entries lists a namespace's live entries sorted by ascending ModTime
	// (ties broken by key), the order size-capped caches evict in.
	Entries(ns string) ([]Entry, error)
	// SizeBytes returns the total accounted size of all live entries.
	SizeBytes() int64
	// Flush forces buffered state to durable storage.
	Flush() error
	// Close flushes and releases the store; the Store is unusable after.
	Close() error
}

// validNamespace gates namespace strings so every backend can use them as
// path components without escaping.
func validNamespace(ns string) bool {
	if ns == "" {
		return false
	}
	for _, c := range ns {
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}
