package rank

import (
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
)

func TestTopKSelectMatchesFullSort(t *testing.T) {
	rr := rand.New(rand.NewSource(161))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rr.Intn(200)
		d := 2 + rr.Intn(3)
		ds := dataset.MustNew(d)
		for i := 0; i < n; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = rr.Float64()
			}
			ds.MustAdd("", v...)
		}
		c := NewComputer(ds)
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = rr.Float64() + 0.01
		}
		full := Compute(ds, w)
		for _, k := range []int{1, 2, n / 2, n - 1, n, n + 10} {
			if k < 1 {
				continue
			}
			sel := c.TopKSelect(w, k)
			kk := k
			if kk > n {
				kk = n
			}
			if len(sel) != kk {
				t.Fatalf("n=%d k=%d: selection length %d", n, k, len(sel))
			}
			for i := 0; i < kk; i++ {
				if sel[i] != full.Order[i] {
					t.Fatalf("n=%d k=%d pos %d: selected %d, full sort %d",
						n, k, i, sel[i], full.Order[i])
				}
			}
		}
	}
}

func TestTopKSelectWithTies(t *testing.T) {
	ds := dataset.MustNew(2)
	// All items tie under w = (1, 1).
	ds.MustAdd("a", 0.6, 0.4)
	ds.MustAdd("b", 0.4, 0.6)
	ds.MustAdd("c", 0.5, 0.5)
	ds.MustAdd("d", 0.3, 0.7)
	c := NewComputer(ds)
	w := geom.Vector{1, 1}
	full := Compute(ds, w)
	sel := c.TopKSelect(w, 2)
	for i := 0; i < 2; i++ {
		if sel[i] != full.Order[i] {
			t.Fatalf("tie-break mismatch at %d: %d vs %d", i, sel[i], full.Order[i])
		}
	}
}

func TestTopKSelectZeroK(t *testing.T) {
	ds := dataset.Figure1()
	c := NewComputer(ds)
	if got := c.TopKSelect(geom.Vector{1, 1}, 0); len(got) != 0 {
		t.Errorf("k=0 selection length %d", len(got))
	}
}

func BenchmarkTopKSelectVsFullSort(b *testing.B) {
	rr := rand.New(rand.NewSource(163))
	ds := dataset.MustNew(3)
	for i := 0; i < 100_000; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	w := geom.Vector{1, 1, 1}
	b.Run("select-k10", func(b *testing.B) {
		c := NewComputer(ds)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.TopKSelect(w, 10)
		}
	})
	b.Run("full-sort", func(b *testing.B) {
		c := NewComputer(ds)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Compute(w)
		}
	})
}
