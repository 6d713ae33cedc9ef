// Package vecmat provides the contiguous row-major sample matrix and the
// flat floating-point kernels behind every Monte-Carlo hot loop in the
// library. The paper's operators — SV (Algorithm 4), GET-NEXTmd's delayed
// arrangement (Algorithm 6, Section 5.4) and the randomized estimators
// (Algorithms 7/8/12) — all reduce to the same inner loop: dot a hyperplane
// normal against tens of thousands of samples, partition them, and re-rank.
// Storing each sample as its own heap-allocated []float64 makes that loop
// pointer-chase one cache line per sample; storing the pool as one
// []float64 with a fixed stride turns it into a sequential sweep the
// hardware prefetcher can saturate.
//
// The package is deliberately dependency-free: a Matrix is just a data
// slice plus a stride, rows are plain []float64 views, and every kernel is
// allocation-free so callers can assert zero allocations per sample.
package vecmat

import "fmt"

// Matrix is a dense row-major matrix: Rows() rows of Stride() float64s each,
// stored back to back in one allocation. The zero value is an empty matrix.
// Matrix has slice semantics: copies share the underlying data.
type Matrix struct {
	data   []float64
	stride int
}

// New returns a zeroed rows x stride matrix in one contiguous allocation.
func New(rows, stride int) Matrix {
	if rows < 0 || stride <= 0 {
		panic(fmt.Sprintf("vecmat: invalid shape %dx%d", rows, stride))
	}
	return Matrix{data: make([]float64, rows*stride), stride: stride}
}

// FromData wraps an existing flat row-major array as a matrix without
// copying; len(data) must be a multiple of stride. The caller keeps
// ownership of the array: mutations are visible both ways.
func FromData(stride int, data []float64) (Matrix, error) {
	if stride <= 0 {
		return Matrix{}, fmt.Errorf("vecmat: stride %d < 1", stride)
	}
	if len(data)%stride != 0 {
		return Matrix{}, fmt.Errorf("vecmat: data length %d not a multiple of stride %d", len(data), stride)
	}
	return Matrix{data: data, stride: stride}, nil
}

// FromRows copies the given equal-length rows into a fresh matrix with
// stride d. It returns an error when a row's length differs from d.
func FromRows(d int, rows [][]float64) (Matrix, error) {
	m := New(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return Matrix{}, fmt.Errorf("vecmat: row %d has length %d, want %d", i, len(r), d)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m Matrix) Rows() int {
	if m.stride == 0 {
		return 0
	}
	return len(m.data) / m.stride
}

// Stride returns the row length d.
func (m Matrix) Stride() int { return m.stride }

// Row returns the i-th row as a view into the matrix (no copy). The full
// slice expression pins cap so appends by callers cannot clobber row i+1.
func (m Matrix) Row(i int) []float64 {
	lo := i * m.stride
	return m.data[lo : lo+m.stride : lo+m.stride]
}

// SetRow copies v into row i; v must have exactly Stride elements.
func (m Matrix) SetRow(i int, v []float64) {
	if len(v) != m.stride {
		panic(fmt.Sprintf("vecmat: SetRow length %d, stride %d", len(v), m.stride))
	}
	copy(m.Row(i), v)
}

// Clone returns an independent deep copy sharing nothing with m.
func (m Matrix) Clone() Matrix {
	out := Matrix{data: make([]float64, len(m.data)), stride: m.stride}
	copy(out.data, m.data)
	return out
}

// Data returns the backing row-major array without copying; mutations are
// visible both ways.
func (m Matrix) Data() []float64 { return m.data }

// Bytes returns the memory footprint of the backing array.
func (m Matrix) Bytes() int64 { return int64(len(m.data)) * 8 }

// Dot returns the inner product of two equal-length vectors. It is the
// shared scalar kernel of the package; the accumulation order is ascending
// index, matching a naive loop bit for bit.
func Dot(a, b []float64) float64 {
	b = b[:len(a)] // one bounds check, then the loop body is check-free
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// EvalRows writes normal . row(i) into out[i-lo] for every row in [lo, hi).
// out must have at least hi-lo elements. This is the batched hyperplane
// sweep: one pass over contiguous memory instead of hi-lo pointer chases.
func (m Matrix) EvalRows(normal []float64, lo, hi int, out []float64) {
	if len(normal) != m.stride {
		panic(fmt.Sprintf("vecmat: EvalRows normal length %d, stride %d", len(normal), m.stride))
	}
	d := m.stride
	if lo >= hi {
		return
	}
	// The small strides slice the row range and out once and walk both
	// with a length test the compiler can prove, so the loop bodies carry
	// no bounds checks.
	switch d {
	case 2:
		n0, n1 := normal[0], normal[1]
		rows, o := m.data[lo*2:hi*2], out[:hi-lo]
		for i := range o {
			if len(rows) < 2 {
				break
			}
			o[i] = n0*rows[0] + n1*rows[1]
			rows = rows[2:]
		}
	case 3:
		n0, n1, n2 := normal[0], normal[1], normal[2]
		rows, o := m.data[lo*3:hi*3], out[:hi-lo]
		for i := range o {
			if len(rows) < 3 {
				break
			}
			o[i] = n0*rows[0] + n1*rows[1] + n2*rows[2]
			rows = rows[3:]
		}
	case 4:
		n0, n1, n2, n3 := normal[0], normal[1], normal[2], normal[3]
		rows, o := m.data[lo*4:hi*4], out[:hi-lo]
		for i := range o {
			if len(rows) < 4 {
				break
			}
			o[i] = n0*rows[0] + n1*rows[1] + n2*rows[2] + n3*rows[3]
			rows = rows[4:]
		}
	default:
		for i := lo; i < hi; i++ {
			out[i-lo] = Dot(normal, m.Row(i))
		}
	}
}

// MulVec writes normal . row(i) into out[i] for every row; out must have
// Rows elements. It is EvalRows over the whole matrix — the dataset-scoring
// kernel of the ranking computer.
func (m Matrix) MulVec(normal, out []float64) {
	m.EvalRows(normal, 0, m.Rows(), out)
}

// EvalRowsBlocked evaluates a block of K = normals.Rows() hyperplane normals
// against every row of m in [lo, hi) in a single pass: it writes
// normals.Row(j) . m.Row(i) into out[(i-lo)*K + j]. out must have at least
// (hi-lo)*K elements. This is the matrix-matrix form of EvalRows: each pool
// row is loaded once — its components hoisted into registers for small
// strides — and streamed against the flat normals array, so K normals cost
// one pool pass instead of K. Each dot accumulates in ascending index order,
// so every entry is bit-identical to the corresponding EvalRows result.
func (m Matrix) EvalRowsBlocked(normals Matrix, lo, hi int, out []float64) {
	k := normals.Rows()
	if k > 0 && normals.stride != m.stride {
		panic(fmt.Sprintf("vecmat: EvalRowsBlocked normals stride %d, matrix stride %d", normals.stride, m.stride))
	}
	if lo >= hi || k == 0 {
		return
	}
	ns := normals.data
	switch m.stride {
	case 2:
		for i := lo; i < hi; i++ {
			r := m.data[i*2 : i*2+2 : i*2+2]
			p0, p1 := r[0], r[1]
			o := out[(i-lo)*k : (i-lo)*k+k : (i-lo)*k+k]
			for j := 0; j < k; j++ {
				o[j] = ns[j*2]*p0 + ns[j*2+1]*p1
			}
		}
	case 3:
		for i := lo; i < hi; i++ {
			r := m.data[i*3 : i*3+3 : i*3+3]
			p0, p1, p2 := r[0], r[1], r[2]
			o := out[(i-lo)*k : (i-lo)*k+k : (i-lo)*k+k]
			for j := 0; j < k; j++ {
				o[j] = ns[j*3]*p0 + ns[j*3+1]*p1 + ns[j*3+2]*p2
			}
		}
	case 4:
		for i := lo; i < hi; i++ {
			r := m.data[i*4 : i*4+4 : i*4+4]
			p0, p1, p2, p3 := r[0], r[1], r[2], r[3]
			o := out[(i-lo)*k : (i-lo)*k+k : (i-lo)*k+k]
			for j := 0; j < k; j++ {
				o[j] = ns[j*4]*p0 + ns[j*4+1]*p1 + ns[j*4+2]*p2 + ns[j*4+3]*p3
			}
		}
	default:
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			o := out[(i-lo)*k : (i-lo)*k+k : (i-lo)*k+k]
			for j := 0; j < k; j++ {
				o[j] = Dot(normals.Row(j), row)
			}
		}
	}
}

// PartitionRows reorders rows [lo, hi) in place so rows with
// normal . row < 0 come first, returning the split index — the quick-sort
// partition of Section 5.4. Rows exactly on the hyperplane go to the
// positive side. The swap sequence is identical to the classic
// slice-of-vectors implementation, so the resulting row order (and every
// centroid downstream) is bit-identical to it.
func (m Matrix) PartitionRows(normal []float64, lo, hi int) int {
	if len(normal) != m.stride {
		panic(fmt.Sprintf("vecmat: PartitionRows normal length %d, stride %d", len(normal), m.stride))
	}
	i := lo
	switch m.stride {
	case 2:
		n0, n1 := normal[0], normal[1]
		for j := lo; j < hi; j++ {
			r := m.data[j*2 : j*2+2 : j*2+2]
			if n0*r[0]+n1*r[1] < 0 {
				m.SwapRows(i, j)
				i++
			}
		}
	case 3:
		n0, n1, n2 := normal[0], normal[1], normal[2]
		for j := lo; j < hi; j++ {
			r := m.data[j*3 : j*3+3 : j*3+3]
			if n0*r[0]+n1*r[1]+n2*r[2] < 0 {
				m.SwapRows(i, j)
				i++
			}
		}
	case 4:
		n0, n1, n2, n3 := normal[0], normal[1], normal[2], normal[3]
		for j := lo; j < hi; j++ {
			r := m.data[j*4 : j*4+4 : j*4+4]
			if n0*r[0]+n1*r[1]+n2*r[2]+n3*r[3] < 0 {
				m.SwapRows(i, j)
				i++
			}
		}
	default:
		for j := lo; j < hi; j++ {
			if Dot(normal, m.Row(j)) < 0 {
				m.SwapRows(i, j)
				i++
			}
		}
	}
	return i
}

// SwapRows exchanges rows i and j element-wise (a no-op when i == j).
func (m Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	a, b := m.Row(i), m.Row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// CentroidRows accumulates the component-wise sum of rows [lo, hi) into out
// (which must be zeroed by the caller and have Stride elements). The
// accumulation order is row-major ascending, matching the naive
// slice-of-vectors loop bit for bit.
func (m Matrix) CentroidRows(lo, hi int, out []float64) {
	if len(out) != m.stride {
		panic(fmt.Sprintf("vecmat: CentroidRows out length %d, stride %d", len(out), m.stride))
	}
	d := m.stride
	for i := lo; i < hi; i++ {
		r := m.data[i*d : i*d+d : i*d+d]
		for k, v := range r {
			out[k] += v
		}
	}
}

// Inside reports whether p satisfies every oriented constraint row:
// row . p >= 0 for all rows, with early exit on the first violation.
func (m Matrix) Inside(p []float64) bool {
	for i, n := 0, m.Rows(); i < n; i++ {
		if Dot(m.Row(i), p) < 0 {
			return false
		}
	}
	return true
}

// ConcatGroups vertically concatenates the given matrices (all of stride d;
// empty matrices are allowed) into one contiguous matrix, returning it
// together with the group index expected by CountInsideGrouped: starts has
// len(groups)+1 entries and group g owns rows [starts[g], starts[g+1]).
func ConcatGroups(d int, groups []Matrix) (Matrix, []int) {
	starts := make([]int, len(groups)+1)
	for g, m := range groups {
		if m.Rows() > 0 && m.stride != d {
			panic(fmt.Sprintf("vecmat: ConcatGroups group %d stride %d, want %d", g, m.stride, d))
		}
		starts[g+1] = starts[g] + m.Rows()
	}
	out := New(starts[len(groups)], d)
	for g, m := range groups {
		copy(out.data[starts[g]*d:], m.data)
	}
	return out, starts
}

// CountInsideGrouped counts pool membership for several constraint groups in
// one pass. cons is the vertical concatenation of G oriented constraint
// matrices; group g owns constraint rows [starts[g], starts[g+1]), so starts
// has G+1 entries with starts[0] == 0 and starts[G] == cons.Rows(). For each
// pool row in [lo, hi) it hoists the sample components into registers once
// and walks the flat constraint array across all groups, adding 1 to
// counts[g] when the row satisfies every constraint of group g. Each group
// keeps CountInside's early exit — on the first violated constraint the scan
// skips to the group's end — so per-group counts are bit-identical to G
// separate CountInside calls while the pool streams through cache once
// instead of G times. An empty group counts every row.
func CountInsideGrouped(cons Matrix, starts []int, pool Matrix, lo, hi int, counts []int) {
	g := len(starts) - 1
	if g < 0 || len(counts) < g {
		panic(fmt.Sprintf("vecmat: CountInsideGrouped starts length %d, counts length %d", len(starts), len(counts)))
	}
	if cons.Rows() > 0 && cons.stride != pool.stride {
		panic(fmt.Sprintf("vecmat: CountInsideGrouped stride %d vs pool stride %d", cons.stride, pool.stride))
	}
	if lo >= hi || g == 0 {
		return
	}
	cs := cons.data
	d := pool.stride
	switch d {
	case 2:
		data := pool.data[lo*2 : hi*2]
		for base := 0; base < len(data); base += 2 {
			p0, p1 := data[base], data[base+1]
			for gi := 0; gi < g; gi++ {
				inside := true
				for c, end := starts[gi]*2, starts[gi+1]*2; c < end; c += 2 {
					if cs[c]*p0+cs[c+1]*p1 < 0 {
						inside = false
						break
					}
				}
				if inside {
					counts[gi]++
				}
			}
		}
	case 3:
		data := pool.data[lo*3 : hi*3]
		for base := 0; base < len(data); base += 3 {
			p0, p1, p2 := data[base], data[base+1], data[base+2]
			for gi := 0; gi < g; gi++ {
				inside := true
				for c, end := starts[gi]*3, starts[gi+1]*3; c < end; c += 3 {
					if cs[c]*p0+cs[c+1]*p1+cs[c+2]*p2 < 0 {
						inside = false
						break
					}
				}
				if inside {
					counts[gi]++
				}
			}
		}
	case 4:
		data := pool.data[lo*4 : hi*4]
		for base := 0; base < len(data); base += 4 {
			p0, p1, p2, p3 := data[base], data[base+1], data[base+2], data[base+3]
			for gi := 0; gi < g; gi++ {
				inside := true
				for c, end := starts[gi]*4, starts[gi+1]*4; c < end; c += 4 {
					if cs[c]*p0+cs[c+1]*p1+cs[c+2]*p2+cs[c+3]*p3 < 0 {
						inside = false
						break
					}
				}
				if inside {
					counts[gi]++
				}
			}
		}
	default:
		for i := lo; i < hi; i++ {
			p := pool.Row(i)
			for gi := 0; gi < g; gi++ {
				inside := true
				for c := starts[gi]; c < starts[gi+1]; c++ {
					if Dot(cons.Row(c), p) < 0 {
						inside = false
						break
					}
				}
				if inside {
					counts[gi]++
				}
			}
		}
	}
}

// CountInside returns how many rows of pool in [lo, hi) satisfy every
// oriented constraint row of m (constraint . sample >= 0), the counting
// kernel of the stability oracle (Algorithm 12). An empty constraint matrix
// counts every row. Small strides hoist the sample components into
// registers and stream the flat constraint array sequentially with early
// exit on the first violation — the same work profile as the historical
// per-sample halfspace walk, without a slice header per dot product.
func (m Matrix) CountInside(pool Matrix, lo, hi int) int {
	if m.Rows() > 0 && m.stride != pool.stride {
		panic(fmt.Sprintf("vecmat: CountInside stride %d vs pool stride %d", m.stride, pool.stride))
	}
	if lo >= hi {
		return 0
	}
	cons := m.data
	count := 0
	switch pool.stride {
	case 2:
		data := pool.data[lo*2 : hi*2]
		for base := 0; base < len(data); base += 2 {
			p0, p1 := data[base], data[base+1]
			inside := true
			for c := 0; c+1 < len(cons); c += 2 {
				if cons[c]*p0+cons[c+1]*p1 < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	case 3:
		data := pool.data[lo*3 : hi*3]
		for base := 0; base < len(data); base += 3 {
			p0, p1, p2 := data[base], data[base+1], data[base+2]
			inside := true
			for c := 0; c+2 < len(cons); c += 3 {
				if cons[c]*p0+cons[c+1]*p1+cons[c+2]*p2 < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	case 4:
		data := pool.data[lo*4 : hi*4]
		for base := 0; base < len(data); base += 4 {
			p0, p1, p2, p3 := data[base], data[base+1], data[base+2], data[base+3]
			inside := true
			for c := 0; c+3 < len(cons); c += 4 {
				if cons[c]*p0+cons[c+1]*p1+cons[c+2]*p2+cons[c+3]*p3 < 0 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	default:
		for i := lo; i < hi; i++ {
			if m.Inside(pool.Row(i)) {
				count++
			}
		}
	}
	return count
}
