package rank

import "stablerank/internal/geom"

// Top-k selection without a full sort. The randomized top-k operators
// (Section 4.5.1) rank the dataset for every Monte-Carlo sample but only
// consume the first k entries; selecting them with a bounded heap costs
// O(n log k) instead of the O(n log n) full sort, which is the difference
// between minutes and seconds at the paper's n = 10^6 scale (Figure 18).

// TopKSelect returns the indices of the k highest-scoring items under w, in
// rank order (ties broken by ascending item index, identically to Compute).
// The returned slice is owned by the computer and overwritten on the next
// call.
func (c *Computer) TopKSelect(w geom.Vector, k int) []int {
	n := len(c.order)
	if k >= n {
		return c.Compute(w).Order
	}
	if k <= 0 {
		return c.order[:0]
	}
	c.scoreAll(w)
	// Bounded min-heap over c.order[:k]: the root is the WORST currently
	// kept item (lowest score; ties: largest index).
	h := c.order[:k]
	for i := 0; i < k; i++ {
		h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		c.siftDown(h, i)
	}
	for i := k; i < n; i++ {
		if c.better(i, h[0]) {
			h[0] = i
			c.siftDown(h, 0)
		}
	}
	// Heap-sort the survivors into rank order: repeatedly remove the worst.
	for size := k; size > 1; size-- {
		h[0], h[size-1] = h[size-1], h[0]
		c.siftDown(h[:size-1], 0)
	}
	return h
}

// better reports whether item a outranks item b (higher score, ties by
// smaller index).
func (c *Computer) better(a, b int) bool {
	if c.scores[a] != c.scores[b] {
		return c.scores[a] > c.scores[b]
	}
	return a < b
}

// siftDown restores the min-heap property (root = worst item) at position i.
func (c *Computer) siftDown(h []int, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && c.better(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && c.better(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
