package dataset

import "sort"

// Skyline computes the set of non-dominated items (the pareto-optimal set,
// Börzsönyi et al.), returned as item indices in insertion order. It is used
// to demonstrate the Section 2.2.5 observation that the most stable top-k
// items are in general not a subset of the skyline.
//
// The implementation is the standard sort-filter skyline: items are sorted
// by decreasing attribute sum (an item can only be dominated by an item with
// a strictly larger or equal sum), then filtered against the running skyline.
// Worst case O(n^2 d), typically far less on real data.
func (ds *Dataset) Skyline() []int {
	n := ds.N()
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sums := make([]float64, n)
	for i := range sums {
		for _, v := range ds.Attrs(i) {
			sums[i] += v
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })

	var skyIdx []int
	for _, i := range order {
		dominated := false
		for _, s := range skyIdx {
			if ds.DominatesIdx(s, i) {
				dominated = true
				break
			}
		}
		if !dominated {
			skyIdx = append(skyIdx, i)
		}
	}
	sort.Ints(skyIdx)
	return skyIdx
}

// IsSkylineMember reports whether item i is dominated by no other item.
func (ds *Dataset) IsSkylineMember(i int) bool {
	for j := range ds.ids {
		if j != i && ds.DominatesIdx(j, i) {
			return false
		}
	}
	return true
}
