package mc

import (
	"bytes"
	"strconv"

	"stablerank/internal/geom"
	"stablerank/internal/rank"
)

// Ranking-identity interning for the Monte-Carlo counters. The historical
// implementation identified every observed ranking by a freshly built
// "i0,i1,..." string — one string allocation (of length O(n)) per sample,
// which dominated the randomized operators' profiles. The intern table
// identifies rankings by a 64-bit hash of the induced index sequence
// instead, collision-checked against the stored canonical order; the rare
// colliding identities fall back to exact string keys. String keys only
// materialize at API edges (Result.Key).

// internEntry is one distinct observed ranking identity.
type internEntry struct {
	// order is the canonical index sequence (a private copy).
	order []int
	// count is the number of observations.
	count int
	// firstW is the first weight vector observed for the identity.
	firstW geom.Vector
	// returned marks identities already emitted by GET-NEXTr.
	returned bool
}

// key renders the entry's canonical string key (API edges only).
func (e *internEntry) key() string { return rank.Ranking{Order: e.order}.Key() }

// internTable maps index sequences to entries by 64-bit hash with exact
// collision handling: the first identity to claim a hash lives in entries;
// any later identity colliding on that hash is keyed by its exact string in
// overflow, so counts are always exact regardless of hash quality.
type internTable struct {
	hash     func([]int) uint64
	entries  map[uint64]*internEntry
	overflow map[string]*internEntry
	distinct int
}

func newInternTable() *internTable {
	return &internTable{hash: hashIndices, entries: make(map[uint64]*internEntry)}
}

// observe counts one observation of sel, creating the entry (with a private
// copy of sel) on first sight. It reports whether the entry is new.
func (t *internTable) observe(sel []int) (*internEntry, bool) {
	h := t.hash(sel)
	e, ok := t.entries[h]
	if !ok {
		e = &internEntry{order: append([]int(nil), sel...), count: 1}
		t.entries[h] = e
		t.distinct++
		return e, true
	}
	if equalIndices(e.order, sel) {
		e.count++
		return e, false
	}
	// Hash collision: this identity shares a hash with a different one.
	// Key it exactly so the counts stay correct.
	key := rank.Ranking{Order: sel}.Key()
	if t.overflow == nil {
		t.overflow = make(map[string]*internEntry)
	}
	e2, ok := t.overflow[key]
	if !ok {
		e2 = &internEntry{order: append([]int(nil), sel...), count: 1}
		t.overflow[key] = e2
		t.distinct++
		return e2, true
	}
	e2.count++
	return e2, false
}

// forEach visits every distinct entry (iteration order is unspecified).
func (t *internTable) forEach(fn func(*internEntry)) {
	for _, e := range t.entries { //srlint:ordered visits are commutative; best() breaks count ties by entry key, not visit order
		fn(e)
	}
	for _, e := range t.overflow { //srlint:ordered visits are commutative; best() breaks count ties by entry key, not visit order
		fn(e)
	}
}

// best returns the unreturned entry with the maximum count, or nil when
// every entry has been returned. Count ties break by the entries' string
// keys — compared element-wise without materializing them — matching the
// historical map[string]int tie-break exactly.
func (t *internTable) best() *internEntry {
	var bestE *internEntry
	bestCount := -1
	t.forEach(func(e *internEntry) {
		if e.returned {
			return
		}
		if e.count > bestCount || (e.count == bestCount && lessIndicesAsKey(e.order, bestE.order)) {
			bestE, bestCount = e, e.count
		}
	})
	return bestE
}

// hashIndices is the default 64-bit ranking-identity hash: FNV-1a over the
// index words followed by a splitmix64 finalizer to spread the low-entropy
// small-integer inputs across the whole word.
func hashIndices(sel []int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range sel {
		h ^= uint64(v)
		h *= 0x100000001b3
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func equalIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lessIndicesAsKey reports whether encodeIndices(a) < encodeIndices(b)
// under byte-wise string comparison, without building either string. At the
// first differing element the decimal renderings decide: bytes.Compare on
// them matches the full-string comparison because the digit bytes decide
// directly when neither rendering prefixes the other, and when one is a
// proper prefix the next byte of the longer string is compared against the
// separator ',' (or end of string), both of which order below any digit —
// the same way bytes.Compare orders the shorter rendering first.
func lessIndicesAsKey(a, b []int) bool {
	var ba, bb [20]byte
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] == b[i] {
			continue
		}
		sa := strconv.AppendInt(ba[:0], int64(a[i]), 10)
		sb := strconv.AppendInt(bb[:0], int64(b[i]), 10)
		if c := bytes.Compare(sa, sb); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}
