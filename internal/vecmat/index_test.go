package vecmat

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// The index must count exactly what the linear grouped kernel counts: these
// tests compare the two on random pools built to break a sloppy box test —
// small-integer rows that tie and sit exactly on hyperplanes, duplicate
// rows, pools smaller than a leaf, and magnitudes whose products overflow,
// underflow or are NaN.

// linearCount is the reference: CountInsideGrouped with cons as one group.
func linearCount(cons, pool Matrix) int {
	counts := make([]int, 1)
	CountInsideGrouped(cons, []int{0, cons.Rows()}, pool, 0, pool.Rows(), counts)
	return counts[0]
}

// fill draws an n x d matrix whose entries come from draw.
func fill(n, d int, draw func() float64) Matrix {
	m := New(n, d)
	for i := range m.data {
		m.data[i] = draw()
	}
	return m
}

// coneRows draws n rows near the unit vector (1, ..., 1)/sqrt(d), the shape
// of a verify pool, so ranking-style constraints cut through it.
func coneRows(rng *rand.Rand, n, d int, spread float64) Matrix {
	return fill(n, d, func() float64 { return 1 + spread*rng.NormFloat64() })
}

// exchangeRows draws m ordering-exchange normals (differences of two random
// non-negative items), the shape of md.ConstraintMatrix's rows.
func exchangeRows(rng *rand.Rand, m, d int) Matrix {
	c := New(m, d)
	for i := range c.data {
		c.data[i] = rng.Float64() - rng.Float64()
	}
	return c
}

func TestIndexCountMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	small := func() float64 { return float64(rng.Intn(5) - 2) }
	normal := rng.NormFloat64
	huge := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 1e300 * rng.NormFloat64()
		case 1:
			return 1e-310 * rng.NormFloat64()
		case 2:
			return math.Inf(1 - 2*rng.Intn(2))
		case 3:
			return math.NaN()
		case 4:
			return 1e160 * rng.NormFloat64()
		}
		return rng.NormFloat64()
	}
	pools := map[string]func(n, d int) Matrix{
		"normal": func(n, d int) Matrix { return fill(n, d, normal) },
		"ties":   func(n, d int) Matrix { return fill(n, d, small) },
		"cone":   func(n, d int) Matrix { return coneRows(rng, n, d, 0.05) },
		"duplicates": func(n, d int) Matrix {
			base := fill(max(n/8, 1), d, small)
			m := New(n, d)
			for i := 0; i < n; i++ {
				m.SetRow(i, base.Row(rng.Intn(base.Rows())))
			}
			return m
		},
		"nonfinite": func(n, d int) Matrix { return fill(n, d, huge) },
	}
	cons := map[string]func(m, d int) Matrix{
		"exchange": func(m, d int) Matrix { return exchangeRows(rng, m, d) },
		"ties":     func(m, d int) Matrix { return fill(m, d, small) },
		"nonfinite": func(m, d int) Matrix {
			c := exchangeRows(rng, m, d)
			for i := range c.data {
				if rng.Intn(4) == 0 {
					c.data[i] = huge()
				}
			}
			return c
		},
	}
	names := func(m map[string]func(int, int) Matrix) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	var s IndexScratch
	checked, nonzero := 0, 0
	for _, d := range []int{3, 4, 5, 7} {
		for _, n := range []int{0, 1, 7, 31, 32, 63, 64, 65, 200, 1000, 5000} {
			for _, pk := range names(pools) {
				pool := pools[pk](n, d)
				ix := BuildIndex(pool)
				for _, ck := range names(cons) {
					for _, m := range []int{0, 1, 2, 3, 8, 16} {
						c := cons[ck](m, d)
						got, want := ix.Count(c, &s), linearCount(c, pool)
						if got != want {
							t.Fatalf("d=%d n=%d pool=%s cons=%s m=%d: index %d, linear %d", d, n, pk, ck, m, got, want)
						}
						checked++
						if want > 0 && want < n {
							nonzero++
						}
					}
				}
			}
		}
	}
	// Guard the guard: most comparisons must be on partial counts, or the
	// test would pass on an index that only ever answers 0 or n.
	if nonzero < checked/3 {
		t.Fatalf("only %d of %d comparisons had a partial count", nonzero, checked)
	}
}

// TestIndexHyperplaneRows: rows placed exactly on a constraint's hyperplane
// (dot exactly 0, counted inside) and one rounding step off it on either
// side must get the linear kernel's verdict, also when a whole leaf is on
// the plane.
func TestIndexHyperplaneRows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range []int{3, 4, 5, 7} {
		normal := make([]float64, d)
		for k := range normal {
			normal[k] = float64(rng.Intn(7) - 3)
		}
		normal[0] = 1
		pool := New(4000, d)
		for i := 0; i < pool.Rows(); i++ {
			row := pool.Row(i)
			for k := 1; k < d; k++ {
				row[k] = float64(rng.Intn(9) - 4)
			}
			// row[0] puts the row on the plane; nudge a third of them.
			row[0] = -Dot(normal[1:], row[1:])
			switch i % 3 {
			case 1:
				row[0] = math.Nextafter(row[0], math.Inf(1))
			case 2:
				row[0] = math.Nextafter(row[0], math.Inf(-1))
			}
		}
		ix := BuildIndex(pool)
		var s IndexScratch
		for _, sign := range []float64{1, -1} {
			c := New(1, d)
			for k := range normal {
				c.data[k] = sign * normal[k]
			}
			if got, want := ix.Count(c, &s), linearCount(c, pool); got != want {
				t.Fatalf("d=%d sign=%v: index %d, linear %d", d, sign, got, want)
			}
		}
	}
}

// TestClassifyConservative drives the box test with boxes at a controlled
// distance from a constraint's hyperplane: a normal is solved so the box's
// nearest corner lies at δ·S from the plane (S the bound's magnitude sum),
// with δ from 0 to well past the margin and magnitudes whose products are
// normal or subnormal. A verdict must hold for every corner of the box under
// the linear kernel's own arithmetic: inside means every corner counts,
// outside that none does.
func TestClassifyConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	decided := 0
	for trial := 0; trial < 60_000; trial++ {
		d := 3 + trial%3
		ix := BuildIndex(New(1, d))
		box := make([]float32, 2*d)
		for k := 0; k < d; k++ {
			box[k] = float32(1 + rng.Float64())
			box[d+k] = float32((0.5 + rng.Float64()/2) * math.Pow(10, -float64(rng.Intn(8))))
		}
		// corner(k, hi) is exact: c and r are float32 within 2^-26 of each
		// other's scale.
		corner := func(k int, hi bool) float64 {
			if hi {
				return float64(box[k]) + float64(box[d+k])
			}
			return float64(box[k]) - float64(box[d+k])
		}
		scale := []float64{1, 1e-300, 1e-310, 1e-315}[rng.Intn(4)]
		n := make([]float64, d)
		s := 0.0
		for k := range n {
			n[k] = scale * rng.NormFloat64()
			s += math.Abs(n[k]) * (float64(box[k]) + float64(box[d+k]))
		}
		// The corner minimizing n.x, and the last component of n that puts
		// it at δ·s above the plane (positive, so the corner stays minimal).
		delta := []float64{0, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-9}[rng.Intn(9)]
		last := d - 1
		sum := 0.0
		for k := 0; k < last; k++ {
			sum += n[k] * corner(k, n[k] < 0)
		}
		n[last] = (delta*s - sum) / corner(last, false)
		if !(n[last] > 0) || math.IsInf(n[last], 0) {
			continue
		}
		for _, sign := range []float64{1, -1} {
			nn := make([]float64, d)
			for k := range n {
				nn[k] = sign * n[k]
			}
			verdict := ix.classify(nn, box)
			if verdict == boxUndecided {
				continue
			}
			decided++
			cons := Matrix{data: nn, stride: d}
			row := New(1, d)
			for mask := 0; mask < 1<<d; mask++ {
				for k := 0; k < d; k++ {
					row.data[k] = corner(k, mask&(1<<k) != 0)
				}
				if in := linearCount(cons, row) == 1; in != (verdict == boxInside) {
					t.Fatalf("d=%d δ=%g normal %v box %v: verdict %d, corner %v counted %v", d, delta, nn, box, verdict, row.data, in)
				}
			}
		}
	}
	if decided < 1000 {
		t.Fatalf("only %d decided boxes; the test no longer reaches the margin", decided)
	}
}

// TestIndexBoxesContainRows walks every node of indexes over normal,
// tied and cone pools: the permutation holds every row once, and every row
// of a node lies inside the node's float32 box in exact arithmetic.
func TestIndexBoxesContainRows(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	exact := func(x float64) *big.Float { return new(big.Float).SetPrec(2100).SetFloat64(x) }
	for _, d := range []int{3, 4, 7} {
		for _, pool := range []Matrix{
			fill(3000, d, rng.NormFloat64),
			fill(777, d, func() float64 { return float64(rng.Intn(3)) }),
			coneRows(rng, 5000, d, 1e-3),
		} {
			ix := BuildIndex(pool)
			seen := slices.Clone(ix.perm)
			slices.Sort(seen)
			for i, r := range seen {
				if int(r) != i {
					t.Fatalf("d=%d: permutation misses row %d", d, i)
				}
			}
			var walk func(node, lo, hi, depth int)
			walk = func(node, lo, hi, depth int) {
				box := ix.boxes[node*2*d : node*2*d+2*d]
				for _, r := range ix.perm[lo:hi] {
					for k, v := range pool.Row(int(r)) {
						c, rad := exact(float64(box[k])), exact(float64(box[d+k]))
						lo := new(big.Float).SetPrec(2100).Sub(c, rad)
						hi := new(big.Float).SetPrec(2100).Add(c, rad)
						if exact(v).Cmp(lo) < 0 || exact(v).Cmp(hi) > 0 {
							t.Fatalf("d=%d node %d: row %d component %d = %v outside [%v, %v]", d, node, r, k, v, lo, hi)
						}
					}
				}
				if depth < ix.depth {
					mid := lo + (hi-lo)/2
					walk(2*node+1, lo, mid, depth+1)
					walk(2*node+2, mid, hi, depth+1)
				}
			}
			walk(0, 0, pool.Rows(), 0)
		}
	}
}

// TestIndexLeavesPoolUntouched: the build keeps a permutation only; the
// pool's bytes and row order are unchanged.
func TestIndexLeavesPoolUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pool := coneRows(rng, 3000, 4, 0.1)
	before := pool.Clone()
	BuildIndex(pool)
	if !slices.Equal(before.data, pool.data) {
		t.Fatal("BuildIndex modified the pool")
	}
}

// TestIndexSize: the index costs at most a quarter of the pool's bytes at
// every pool stride the sampled paths use.
func TestIndexSize(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, d := range []int{3, 4, 5, 7} {
		for _, n := range []int{4096, 20_000, 100_000} {
			pool := coneRows(rng, n, d, 0.1)
			ix := BuildIndex(pool)
			if len(ix.perm) != n {
				t.Fatalf("d=%d n=%d: index covers %d rows", d, n, len(ix.perm))
			}
			if 4*ix.Bytes() > pool.Bytes() {
				t.Errorf("d=%d n=%d: index %d bytes, more than a quarter of the pool's %d", d, n, ix.Bytes(), pool.Bytes())
			}
		}
	}
	if (*Index)(nil).Bytes() != 0 {
		t.Error("nil index reports bytes")
	}
}

// TestIndexCountAllocationFree: once the scratch has grown, a count
// allocates nothing.
func TestIndexCountAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pool := coneRows(rng, 20_000, 4, 0.05)
	cons := exchangeRows(rng, 40, 4)
	ix := BuildIndex(pool)
	var s IndexScratch
	ix.Count(cons, &s)
	if allocs := testing.AllocsPerRun(10, func() { ix.Count(cons, &s) }); allocs != 0 {
		t.Fatalf("Count allocates %.1f per run", allocs)
	}
}

func TestUseIndex(t *testing.T) {
	for _, c := range []struct {
		d, pool, cons int
		want          bool
	}{
		{4, 100_000, 299, true},   // verify: ~334 rows per constraint
		{4, 20_000, 149, true},    // regions: ~134
		{4, 4096, 999, false},     // churn: ~4
		{4, 4096, 128, true},      // exactly K
		{4, 4096, 129, false},     // just below K
		{5, 4096, 128, true},      // K holds through d = 5
		{6, 4096, 64, true},       // 2K at d = 6
		{6, 4096, 65, false},      //
		{7, 4096, 32, true},       // 4K at d = 7
		{7, 4096, 33, false},      //
		{4, 1, 0, true},           // an empty group
		{40, 1 << 20, 0, true},    // an empty group, any stride
		{40, 1 << 20, 1, false},   // K outgrows the pool
		{4, 100_000, 5000, false}, // 20 rows per constraint
	} {
		pool, cons := Matrix{data: make([]float64, c.pool*c.d), stride: c.d}, Matrix{data: make([]float64, c.cons*c.d), stride: c.d}
		if got := UseIndex(pool, cons); got != c.want {
			t.Errorf("UseIndex(d=%d, %d rows, %d constraints) = %v, want %v", c.d, c.pool, c.cons, got, c.want)
		}
	}
}

// FuzzIndexCount decodes the input into a stride in {3, 4, 5}, a pool of up
// to 512 rows and a group of up to 16 constraint rows, and demands the
// index count equal CountInsideGrouped's. Each value is a small integer
// (ties, rows exactly on hyperplanes) unless its tag byte asks for the next
// eight bytes as raw float64 bits (NaNs, infinities, subnormals, huge
// magnitudes).
func FuzzIndexCount(f *testing.F) {
	f.Add([]byte{1, 0, 200, 3})
	f.Add([]byte{0, 1, 255, 16, 1, 2, 3, 4, 5, 6, 7})
	seed := []byte{2, 1, 100, 7}
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i*37))
	}
	f.Add(seed)
	raw := []byte{1, 0, 80, 4}
	for _, v := range []float64{math.Inf(1), math.NaN(), 1e300, -1e-310, 0.5, -0.25} {
		raw = append(raw, 3)
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		d := 3 + int(next())%3
		n := (int(next())<<8 | int(next())) % 513
		m := int(next()) % 17
		value := func() float64 {
			tag := next()
			if tag%4 != 3 || len(data) < 8 {
				return float64(int(tag%7) - 3)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		// Constraints first: a short input then leaves the pool as zeros,
		// rows exactly on every hyperplane.
		cons := fill(m, d, value)
		pool := fill(n, d, value)
		var s IndexScratch
		if got, want := BuildIndex(pool).Count(cons, &s), linearCount(cons, pool); got != want {
			t.Fatalf("d=%d n=%d m=%d: index %d, linear %d", d, n, m, got, want)
		}
	})
}
