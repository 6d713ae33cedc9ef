package vecmat

import (
	"math"
)

// Index is an exact halfspace range-counting index over a pool matrix: a
// kd-tree of row indices with one bounding box per node. Count answers the
// question CountInsideGrouped answers for one group — how many pool rows
// satisfy every oriented constraint row — by walking the tree instead of
// scanning every row. A node whose box lies wholly outside one constraint
// counts 0, a constraint the whole box satisfies is dropped for the subtree,
// a node with no undecided constraint counts all its rows, and only boundary
// leaves test rows one by one, with the dot expression CountInsideGrouped
// uses for that stride. The box tests are conservative (see classify), so
// every count equals the linear kernel's bit for bit.
//
// The tree is balanced and implicit: node i's children are 2i+1 and 2i+2,
// a node's rows are split at the middle of its range, and every leaf sits at
// the same depth, so a node stores only its box and the row ranges follow
// from the pool size. The index holds a row permutation, never a reordered
// copy of the pool, and the pool matrix itself is never reordered: the pool
// must stay unmodified while the index is in use. An Index is immutable
// after BuildIndex and safe for concurrent Count calls, each with its own
// IndexScratch.
type Index struct {
	pool  Matrix
	depth int     // leaves are the nodes at this depth
	perm  []int32 // pool row indices, node ranges contiguous
	// boxes holds, per node in heap order, d centers then d radii: every
	// row p of the node satisfies |p[k] - center[k]| <= radius[k] exactly.
	// float32 keeps the index under a quarter of the pool's bytes; centers
	// are rounded to nearest and radii rounded outward to keep containment.
	boxes  []float32
	margin float64 // relative box-test margin, see classify
}

const (
	// indexLeafRows is the smallest leaf: the tree is split while both
	// halves keep at least this many rows, so leaves hold 32 to 64 rows (a
	// smaller pool is one leaf). With float32 boxes the index then costs 4
	// bytes of permutation plus d/4 to d/2 bytes of boxes per row: 13-23%
	// of the pool's bytes at d = 3..5, less above.
	indexLeafRows = 32

	// indexRowsPerConstraint is the use rule K: a constraint group is
	// counted through the index only when the pool has at least K rows per
	// constraint row at strides up to 5, twice as many per further
	// dimension. Measured with one goroutine on a 2-core VM (8 rankings,
	// full space and cosine 0.99 cones), the index's speed-up over the scan
	// at 16 / 32 / 64 rows per constraint was 1.3-3.1 / 2.9-4.5 / 7-8.7x at
	// d = 3, 0.81-1.7 / 2.1-3.4 / 3.7-5.7x at d = 4, 0.59-1.0 / 1.35-1.8 /
	// 1.9-3.1x at d = 5 and 0.41-0.55 / 0.58-0.81 / 0.89-1.12x at d = 7
	// (2.2-2.6x at 256): few rows per constraint means many boundary leaves
	// whose row tests cost more than the scan they replace, and pruning
	// weakens as the dimension grows.
	indexRowsPerConstraint = 32

	// indexMargin is the relative box-test margin c: a box decision must
	// clear c times the magnitude sum of the bound (see classify). The
	// rounding errors of a row's d-term dot product and of the bound are
	// each below about d * 2^-53 of that sum; BuildIndex takes c =
	// max(1e-12, d * 2^-44), which keeps their total at least a hundred
	// times below the margin at every stride.
	indexMargin = 1e-12
	// indexFloor is the absolute part of the margin: it covers the error
	// of products that underflow into the subnormal range, so a box whose
	// magnitude sum is below it is never decided.
	indexFloor = 0x1p-1000
)

// UseIndex reports whether the constraint group cons should be counted over
// pool through an Index rather than the linear kernel: the use rule, at
// least indexRowsPerConstraint pool rows per constraint row, doubled for
// each dimension past 5.
func UseIndex(pool, cons Matrix) bool {
	k := indexRowsPerConstraint
	for d := 5; d < pool.stride && k <= pool.Rows(); d++ {
		k *= 2
	}
	return pool.Rows() >= k*cons.Rows()
}

// BuildIndex builds the range-counting index over pool: median splits on the
// widest box dimension down to leaves of indexLeafRows to 2*indexLeafRows
// rows. The pool is read, never written, and must not change while the index
// is used. The build is deterministic. It returns nil for a pool with more
// rows than an int32 can number.
func BuildIndex(pool Matrix) *Index {
	n, d := pool.Rows(), pool.stride
	if n > math.MaxInt32 {
		return nil
	}
	depth := 0
	for n>>(depth+1) >= indexLeafRows {
		depth++
	}
	ix := &Index{
		pool:   pool,
		depth:  depth,
		perm:   make([]int32, n),
		boxes:  make([]float32, ((2<<depth)-1)*2*d),
		margin: max(indexMargin, float64(d)*0x1p-44),
	}
	for i := range ix.perm {
		ix.perm[i] = int32(i)
	}
	if n > 0 {
		ix.build(0, 0, n, 0, make([]float64, n), make([]float64, 2*d))
	}
	return ix
}

// build fills node's box from rows perm[lo:hi] and, above the leaf depth,
// splits the range at its middle along the widest dimension. keys and lohi
// are scratch: one split key per row, and the float64 bounds.
func (ix *Index) build(node, lo, hi, depth int, keys, lohi []float64) {
	d := ix.pool.stride
	data := ix.pool.data
	bmin, bmax := lohi[:d], lohi[d:]
	for k := range bmin {
		bmin[k], bmax[k] = math.Inf(1), math.Inf(-1)
	}
	for _, r := range ix.perm[lo:hi] {
		row := data[int(r)*d : int(r)*d+d]
		mn, mx := bmin[:len(row)], bmax[:len(row)]
		for k, v := range row {
			// min and max return NaN when either argument is NaN, so a
			// NaN row leaves the box undecidable.
			mn[k] = min(mn[k], v)
			mx[k] = max(mx[k], v)
		}
	}
	box := ix.boxes[node*2*d : node*2*d+2*d]
	widest, spread := 0, -1.0
	for k := 0; k < d; k++ {
		c := near32(bmin[k]/2 + bmax[k]/2)
		r := max(bmax[k]-float64(c), float64(c)-bmin[k])
		// One float32 step beyond the outward rounding covers the float64
		// rounding of the two subtractions above.
		box[k], box[d+k] = c, math.Nextafter32(up32(r), float32(math.Inf(1)))
		if s := bmax[k] - bmin[k]; s > spread {
			widest, spread = k, s
		}
	}
	if depth == ix.depth {
		return
	}
	mid := lo + (hi-lo)/2
	ix.selectNth(ix.perm[lo:hi], keys[lo:hi], mid-lo, widest)
	ix.build(2*node+1, lo, mid, depth+1, keys, lohi)
	ix.build(2*node+2, mid, hi, depth+1, keys, lohi)
}

// selectNth reorders idx so the row at position nth holds the nth smallest
// value of dimension k, no row before it is larger and none after it is
// smaller: quickselect over the gathered keys with a median-of-three pivot
// and a three-way partition, so runs of tied values (and NaNs, which compare
// equal to everything here) end it in linear time.
func (ix *Index) selectNth(idx []int32, keys []float64, nth, k int) {
	data, d := ix.pool.data, ix.pool.stride
	keys = keys[:len(idx)]
	for i, r := range idx {
		keys[i] = data[int(r)*d+k]
	}
	lo, hi := 0, len(idx)
	for hi-lo > 1 {
		a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi-1]
		if a > b {
			a, b = b, a
		}
		pivot := max(a, min(b, c))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := keys[i]; {
			case v < pivot:
				keys[lt], keys[i] = v, keys[lt]
				idx[lt], idx[i] = idx[i], idx[lt]
				lt++
				i++
			case v > pivot:
				gt--
				keys[i], keys[gt] = keys[gt], v
				idx[i], idx[gt] = idx[gt], idx[i]
			default:
				i++
			}
		}
		switch {
		case nth < lt:
			hi = lt
		case nth >= gt:
			lo = gt
		default:
			return
		}
	}
}

// near32 rounds x to a float32, mapping values beyond the float32 range to
// the matching infinity explicitly rather than through the conversion.
func near32(x float64) float32 {
	switch {
	case x > math.MaxFloat32:
		return float32(math.Inf(1))
	case x < -math.MaxFloat32:
		return float32(math.Inf(-1))
	}
	return float32(x)
}

// up32 returns the smallest float32 not below x (NaN stays NaN).
func up32(x float64) float32 {
	f := near32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Bytes returns the index's resident size: the row permutation and the node
// boxes (the pool it indexes is not included). A nil index has size 0.
func (ix *Index) Bytes() int64 {
	if ix == nil {
		return 0
	}
	return int64(len(ix.perm))*4 + int64(len(ix.boxes))*4
}

// IndexScratch is the reusable per-goroutine scratch of Index.Count: the
// active-constraint lists of one root-to-leaf path. The zero value is ready
// to use; one scratch must not be shared by concurrent Count calls.
type IndexScratch struct {
	active []int32
}

// Count returns how many pool rows satisfy every oriented constraint row of
// cons (constraint . row >= 0), exactly CountInsideGrouped's count for cons
// as one group over the whole pool. An empty cons counts every row. It
// allocates only when s must grow.
func (ix *Index) Count(cons Matrix, s *IndexScratch) int {
	n, m := len(ix.perm), cons.Rows()
	if m > 0 && cons.stride != ix.pool.stride {
		panic("vecmat: Index.Count constraint stride differs from the pool's")
	}
	if n == 0 || m == 0 {
		return n
	}
	need := (ix.depth + 2) * m
	if cap(s.active) < need {
		s.active = make([]int32, need)
	}
	s.active = s.active[:need]
	root := s.active[:m]
	for c := range root {
		root[c] = int32(c)
	}
	return ix.count(cons, s.active[m:], 0, 0, n, 0, root)
}

// count returns node's count given its parent's undecided constraints. free
// is scratch for this node's list and every deeper one.
func (ix *Index) count(cons Matrix, free []int32, node, lo, hi, depth int, parent []int32) int {
	m := cons.Rows()
	active, free := free[:0:m], free[m:]
	d := ix.pool.stride
	box := ix.boxes[node*2*d : node*2*d+2*d]
	for _, c := range parent {
		switch ix.classify(cons.data[int(c)*d:int(c)*d+d], box) {
		case boxOutside:
			return 0
		case boxUndecided:
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return hi - lo
	}
	if depth == ix.depth {
		return ix.leafCount(cons, ix.perm[lo:hi], active)
	}
	mid := lo + (hi-lo)/2
	return ix.count(cons, free, 2*node+1, lo, mid, depth+1, active) +
		ix.count(cons, free, 2*node+2, mid, hi, depth+1, active)
}

const (
	boxUndecided = iota
	boxInside
	boxOutside
)

// classify decides one constraint normal n against a node box of centers c
// and radii r. For every row p in the box, the exact n.p lies within
// n.c ± Σ|n_k| r_k and Σ|n_k p_k| is at most S = Σ|n_k| (|c_k| + r_k). The
// computed dot of a row and the computed bound each differ from the exact
// values by less than d * 2^-53 * S (plus an underflow term), so a bound
// that clears eps = margin * S + indexFloor on the right side decides the
// sign of every row's computed dot: boxInside means every row's kernel dot
// is >= 0, boxOutside that every one is < 0. NaN or infinite intermediates
// fail both comparisons and leave the constraint undecided.
func (ix *Index) classify(n []float64, box []float32) int {
	d := len(n)
	var nc, rad, s float64
	for k := 0; k < d; k++ {
		c, r := float64(box[k]), float64(box[d+k])
		a := math.Abs(n[k])
		nc += n[k] * c
		rad += a * r
		s += a * (math.Abs(c) + r)
	}
	eps := ix.margin*s + indexFloor
	switch {
	case nc+rad+eps < 0:
		return boxOutside
	case nc-rad-eps >= 0:
		return boxInside
	}
	return boxUndecided
}

// leafCount tests each row of a boundary leaf against the undecided
// constraints with the dot expression CountInsideGrouped uses for the
// stride, so its per-row verdicts are the linear kernel's.
func (ix *Index) leafCount(cons Matrix, rows, active []int32) int {
	cs, data := cons.data, ix.pool.data
	count := 0
	switch ix.pool.stride {
	case 2:
		for _, r := range rows {
			p0, p1 := data[int(r)*2], data[int(r)*2+1]
			inside := true
			for _, a := range active {
				c := int(a) * 2
				if cs[c]*p0+cs[c+1]*p1 < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	case 3:
		for _, r := range rows {
			p := data[int(r)*3 : int(r)*3+3 : int(r)*3+3]
			p0, p1, p2 := p[0], p[1], p[2]
			inside := true
			for _, a := range active {
				c := int(a) * 3
				if cs[c]*p0+cs[c+1]*p1+cs[c+2]*p2 < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	case 4:
		for _, r := range rows {
			p := data[int(r)*4 : int(r)*4+4 : int(r)*4+4]
			p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
			inside := true
			for _, a := range active {
				c := int(a) * 4
				if cs[c]*p0+cs[c+1]*p1+cs[c+2]*p2+cs[c+3]*p3 < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	default:
		for _, r := range rows {
			p := ix.pool.Row(int(r))
			inside := true
			for _, a := range active {
				if Dot(cons.Row(int(a)), p) < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	}
	return count
}
