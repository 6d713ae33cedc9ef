package server

import (
	"container/list"
	"strings"
	"sync"
)

// lruCache is a mutex-guarded LRU cache mapping canonical query keys to
// rendered JSON responses. Entries are immutable byte slices, so a value
// handed out under the lock can be written to a response after it without
// copying.
type lruCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses int64
}

type lruEntry struct {
	key string
	val []byte
}

// newLRUCache returns a cache holding at most max entries; max < 1 disables
// caching (every get misses, every put is dropped).
func newLRUCache(max int) *lruCache {
	return &lruCache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached value for key, marking it most recently used.
func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores val under key, evicting the least recently used entry when the
// cache is full. Storing an existing key refreshes its value and recency.
func (c *lruCache) put(key string, val []byte) {
	if c.max < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, val: val})
}

// invalidateDataset removes every cached response belonging to the named
// dataset (keys start with "name@"; see analyzerKey.at) and reports how
// many entries were removed and how many — belonging to other datasets —
// survived. This is the fine-grained path dataset deltas use: a PATCH to one
// dataset leaves every other dataset's cached responses untouched, where the
// old whole-generation scheme would simply have orphaned them.
func (c *lruCache) invalidateDataset(name string) (removed, survived int) {
	prefix := name + "@"
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*lruEntry)
		if strings.HasPrefix(ent.key, prefix) {
			c.order.Remove(el)
			delete(c.entries, ent.key)
			removed++
		} else {
			survived++
		}
		el = next
	}
	return removed, survived
}

// stats returns the cumulative hit/miss counters and the current size.
func (c *lruCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
