// Package rank implements rankings induced by linear scoring functions
// (Definition 1 and the ranking operator of Section 2.1.1), with the
// deterministic tie-breaking the paper requires, plus the partial-ranking
// keys used by the randomized top-k operators (Section 4.5.1) and classical
// rank-distance measures used in the experiment reports.
package rank

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/vecmat"
)

// Ranking is a permutation of item indices, best first. It is produced by
// scoring every item with a weight vector and sorting descending, breaking
// ties consistently by item index (a proxy for the paper's "item
// identifier" tie-break).
type Ranking struct {
	Order []int
}

// Compute returns the ranking of the dataset induced by the weight vector w.
// It is the operator named nabla_f(D) in the paper. It delegates to a
// one-shot Computer so the sort and tie-break logic exists in exactly one
// place; loops ranking the same dataset repeatedly should hold their own
// Computer to amortize its buffers.
func Compute(ds *dataset.Dataset, w geom.Vector) Ranking {
	return NewComputer(ds).Compute(w).Clone()
}

// Computer ranks one dataset repeatedly without allocating: one
// dot-product sweep over the dataset's attribute matrix scores every item,
// and the sort is an argsort over precomputed order keys in reused buffers.
// The Monte-Carlo operators rank the same dataset tens of thousands of
// times, so Compute performs zero allocations per call.
type Computer struct {
	attrs  vecmat.Matrix // the dataset's own n x d attribute table
	order  []int
	scores []float64
	keys   []scoredIdx
}

// scoredIdx is one argsort element: a precomputed order key (ascending key
// = descending score; see sortKey) plus the item index as tie-break.
type scoredIdx struct {
	key uint64
	idx int32
}

// cmpScored is the one total order over argsort elements: ascending key
// (descending score) with the item index as tie-break.
func cmpScored(a, b scoredIdx) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.idx) - int(b.idx)
}

// NewComputer returns a reusable ranking computer over ds.
func NewComputer(ds *dataset.Dataset) *Computer {
	n := ds.N()
	return &Computer{
		attrs:  ds.Matrix(),
		order:  make([]int, n),
		scores: make([]float64, n),
		keys:   make([]scoredIdx, n),
	}
}

// scoreAll fills c.scores with w . attrs for every item in one contiguous
// sweep. The per-item accumulation order matches dataset.Score bit for bit.
func (c *Computer) scoreAll(w geom.Vector) {
	c.attrs.MulVec(w, c.scores)
}

// sortKey maps a score to a uint64 whose ascending order is descending
// score order: the standard sign-flip trick makes float bits monotonic,
// and complementing reverses the direction. Both zeros collapse to one key
// so -0.0 and +0.0 tie (and fall through to the index tie-break), exactly
// like the == comparison of the historical comparator.
func sortKey(f float64) uint64 {
	if f == 0 {
		return ^(uint64(1) << 63)
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// Compute returns the ranking induced by w. The returned slice is owned by
// the computer and overwritten on the next call; callers needing to retain
// it must copy (or use Ranking.Clone).
func (c *Computer) Compute(w geom.Vector) Ranking {
	c.scoreAll(w)
	for i, s := range c.scores {
		c.keys[i] = scoredIdx{key: sortKey(s), idx: int32(i)}
	}
	slices.SortFunc(c.keys, cmpScored)
	for i, p := range c.keys {
		c.order[i] = int(p.idx)
	}
	return Ranking{Order: c.order}
}

// Clone returns an independent copy of the ranking.
func (r Ranking) Clone() Ranking {
	o := make([]int, len(r.Order))
	copy(o, r.Order)
	return Ranking{Order: o}
}

// Equal reports whether two rankings order items identically.
func (r Ranking) Equal(s Ranking) bool {
	if len(r.Order) != len(s.Order) {
		return false
	}
	for i := range r.Order {
		if r.Order[i] != s.Order[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying the complete ranking, for use
// as a hash-map key in the Monte-Carlo counters (Algorithms 7 and 8).
func (r Ranking) Key() string { return encodeIndices(r.Order) }

// TopKRankedKey returns a key identifying the ordered top-k prefix: two
// weight vectors share it iff they select the same top-k items in the same
// order (the "ranked top-k" semantics of Section 4.5.1).
func (r Ranking) TopKRankedKey(k int) string {
	if k > len(r.Order) {
		k = len(r.Order)
	}
	return encodeIndices(r.Order[:k])
}

// TopKSetKey returns a key identifying the unordered top-k set: two weight
// vectors share it iff they select the same set of top-k items in any order
// (the "top-k set" semantics of Section 4.5.1).
func (r Ranking) TopKSetKey(k int) string {
	if k > len(r.Order) {
		k = len(r.Order)
	}
	top := make([]int, k)
	copy(top, r.Order[:k])
	sort.Ints(top)
	return encodeIndices(top)
}

func encodeIndices(idx []int) string {
	var b strings.Builder
	b.Grow(len(idx) * 4)
	for i, v := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// DecodeKey parses a key produced by Key/TopK*Key back into item indices.
func DecodeKey(key string) ([]int, error) {
	if key == "" {
		return nil, nil
	}
	parts := strings.Split(key, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("rank: bad key %q: %w", key, err)
		}
		out[i] = v
	}
	return out, nil
}

// PositionOf returns the 1-based rank of item idx in the ranking, or 0 if it
// does not appear.
func (r Ranking) PositionOf(idx int) int {
	for pos, v := range r.Order {
		if v == idx {
			return pos + 1
		}
	}
	return 0
}

// Describe formats the ranking as item IDs, best first, up to limit entries
// (limit <= 0 means all).
func (r Ranking) Describe(ds *dataset.Dataset, limit int) string {
	n := len(r.Order)
	if limit > 0 && limit < n {
		n = limit
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = ds.Item(r.Order[i]).ID
	}
	s := strings.Join(ids, " > ")
	if n < len(r.Order) {
		s += " > ..."
	}
	return s
}
