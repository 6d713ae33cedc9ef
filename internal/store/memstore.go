package store

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// MemStore is the in-memory Store: the backend for tests and for servers
// that want the durable layers' code paths (snapshot reuse within a process,
// job records) without touching disk. Values are copied on the
// way in and out, so callers cannot alias the stored bytes.
type MemStore struct {
	mu   sync.Mutex
	ns   map[string]map[string]memEntry
	size int64
	tick int64 // logical clock standing in for mod times
}

type memEntry struct {
	value []byte
	tick  int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{ns: make(map[string]map[string]memEntry)}
}

// Put implements Store.
func (s *MemStore) Put(ns, key string, value []byte) error {
	if !validNamespace(ns) {
		return fmt.Errorf("store: invalid namespace %q", ns)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.ns[ns]
	if m == nil {
		m = make(map[string]memEntry)
		s.ns[ns] = m
	}
	if old, ok := m[key]; ok {
		s.size -= int64(len(old.value))
	}
	s.tick++
	m[key] = memEntry{value: append([]byte(nil), value...), tick: s.tick}
	s.size += int64(len(value))
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ns, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.ns[ns][key]
	if !ok {
		return nil, fmt.Errorf("store: %s/%s: %w", ns, key, ErrNotFound)
	}
	return append([]byte(nil), e.value...), nil
}

// Delete implements Store.
func (s *MemStore) Delete(ns, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.ns[ns][key]; ok {
		s.size -= int64(len(e.value))
		delete(s.ns[ns], key)
	}
	return nil
}

// Entries implements Store; mod times are synthesized from the insertion
// order so eviction ordering behaves like the file-backed store's.
func (s *MemStore) Entries(ns string) ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.ns[ns]
	out := make([]Entry, 0, len(m))
	base := time.Unix(0, 0)
	for k, e := range m {
		out = append(out, Entry{Key: k, Bytes: int64(len(e.value)), ModTime: base.Add(time.Duration(e.tick))})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.Before(out[j].ModTime)
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// SizeBytes implements Store.
func (s *MemStore) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Flush implements Store (a no-op: nothing is buffered).
func (s *MemStore) Flush() error { return nil }

// Close implements Store.
func (s *MemStore) Close() error { return nil }
