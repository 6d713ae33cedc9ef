package rank

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
)

func TestComputeFigure1(t *testing.T) {
	// Figure 1b: under f = x1 + x2 the ranking is t2, t4, t3, t5, t1.
	ds := dataset.Figure1()
	r := Compute(ds, geom.Vector{1, 1})
	want := []int{1, 3, 2, 4, 0}
	if !r.Equal(Ranking{Order: want}) {
		t.Errorf("ranking = %v, want %v", r.Order, want)
	}
	// Extreme function x1 only: order by first attribute.
	r1 := Compute(ds, geom.Vector{1, 0})
	want1 := []int{1, 3, 0, 2, 4}
	if !r1.Equal(Ranking{Order: want1}) {
		t.Errorf("x1 ranking = %v, want %v", r1.Order, want1)
	}
	// Extreme function x2 only.
	r2 := Compute(ds, geom.Vector{0, 1})
	want2 := []int{4, 2, 0, 3, 1}
	if !r2.Equal(Ranking{Order: want2}) {
		t.Errorf("x2 ranking = %v, want %v", r2.Order, want2)
	}
}

func TestComputeTieBreaksByIndex(t *testing.T) {
	ds := dataset.MustNew(2)
	ds.MustAdd("a", 1, 0)
	ds.MustAdd("b", 0, 1)
	ds.MustAdd("c", 0.5, 0.5)
	r := Compute(ds, geom.Vector{1, 1})
	want := []int{0, 1, 2}
	if !r.Equal(Ranking{Order: want}) {
		t.Errorf("tied ranking = %v, want index order %v", r.Order, want)
	}
}

func TestComputeScaleInvariance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 2 + rr.Intn(3)
		ds := dataset.MustNew(d)
		for i := 0; i < 20; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = rr.Float64()
			}
			ds.MustAdd("", v...)
		}
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = rr.Float64() + 0.01
		}
		r1 := Compute(ds, w)
		r2 := Compute(ds, w.Scale(7.3))
		return r1.Equal(r2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestComputerMatchesCompute(t *testing.T) {
	rr := rand.New(rand.NewSource(42))
	ds := dataset.MustNew(3)
	for i := 0; i < 100; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	c := NewComputer(ds)
	for trial := 0; trial < 50; trial++ {
		w := geom.Vector{rr.Float64(), rr.Float64(), rr.Float64()}
		got := c.Compute(w)
		want := Compute(ds, w)
		if !got.Equal(want) {
			t.Fatalf("computer mismatch at trial %d", trial)
		}
	}
}

func TestKeys(t *testing.T) {
	r := Ranking{Order: []int{3, 1, 4, 0, 2}}
	if r.Key() != "3,1,4,0,2" {
		t.Errorf("Key = %q", r.Key())
	}
	if r.TopKRankedKey(3) != "3,1,4" {
		t.Errorf("TopKRankedKey = %q", r.TopKRankedKey(3))
	}
	if r.TopKSetKey(3) != "1,3,4" {
		t.Errorf("TopKSetKey = %q", r.TopKSetKey(3))
	}
	// Set key ignores order: a different permutation of the same top-3.
	s := Ranking{Order: []int{4, 3, 1, 2, 0}}
	if r.TopKSetKey(3) != s.TopKSetKey(3) {
		t.Error("set keys of same top-3 sets differ")
	}
	if r.TopKRankedKey(3) == s.TopKRankedKey(3) {
		t.Error("ranked keys of different orders collide")
	}
	// Oversized k clamps.
	if r.TopKRankedKey(99) != r.Key() {
		t.Error("oversized k should equal full key")
	}
}

func TestDecodeKey(t *testing.T) {
	idx, err := DecodeKey("3,1,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 || idx[0] != 3 || idx[2] != 4 {
		t.Errorf("DecodeKey = %v", idx)
	}
	if _, err := DecodeKey("1,x"); err == nil {
		t.Error("bad key accepted")
	}
	if idx, err := DecodeKey(""); err != nil || idx != nil {
		t.Errorf("empty key = %v, %v", idx, err)
	}
}

func TestPositionOf(t *testing.T) {
	r := Ranking{Order: []int{3, 1, 4}}
	if r.PositionOf(1) != 2 {
		t.Error("PositionOf(1) != 2")
	}
	if r.PositionOf(9) != 0 {
		t.Error("missing item should return 0")
	}
}

func TestDescribe(t *testing.T) {
	ds := dataset.Figure1()
	r := Compute(ds, geom.Vector{1, 1})
	if got := r.Describe(ds, 3); got != "t2 > t4 > t3 > ..." {
		t.Errorf("Describe = %q", got)
	}
	if got := r.Describe(ds, 0); got != "t2 > t4 > t3 > t5 > t1" {
		t.Errorf("full Describe = %q", got)
	}
}

func TestKendallTau(t *testing.T) {
	a := Ranking{Order: []int{0, 1, 2, 3}}
	tests := []struct {
		name string
		b    []int
		want int
	}{
		{"identical", []int{0, 1, 2, 3}, 0},
		{"one swap", []int{1, 0, 2, 3}, 1},
		{"reversed", []int{3, 2, 1, 0}, 6},
		{"rotation", []int{1, 2, 3, 0}, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := KendallTau(a, Ranking{Order: tc.b})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("KendallTau = %d, want %d", got, tc.want)
			}
		})
	}
	if _, err := KendallTau(a, Ranking{Order: []int{0, 1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := KendallTau(a, Ranking{Order: []int{0, 1, 2, 9}}); err == nil {
		t.Error("different item set accepted")
	}
	if _, err := KendallTau(a, Ranking{Order: []int{0, 1, 2, 2}}); err == nil {
		t.Error("duplicate items accepted")
	}
}

func TestKendallTauAgainstBruteForce(t *testing.T) {
	rr := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rr.Intn(30)
		a := Ranking{Order: rr.Perm(n)}
		b := Ranking{Order: rr.Perm(n)}
		got, err := KendallTau(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: count discordant pairs.
		posA := make([]int, n)
		posB := make([]int, n)
		for i, v := range a.Order {
			posA[v] = i
		}
		for i, v := range b.Order {
			posB[v] = i
		}
		want := 0
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if (posA[x] < posA[y]) != (posB[x] < posB[y]) {
					want++
				}
			}
		}
		if got != want {
			t.Fatalf("n=%d KendallTau = %d, brute force %d", n, got, want)
		}
	}
}

func TestKendallTauMetricProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(44))}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(15)
		a := Ranking{Order: rr.Perm(n)}
		b := Ranking{Order: rr.Perm(n)}
		c := Ranking{Order: rr.Perm(n)}
		dab, _ := KendallTau(a, b)
		dba, _ := KendallTau(b, a)
		if dab != dba {
			return false // symmetry
		}
		daa, _ := KendallTau(a, a)
		if daa != 0 {
			return false // identity
		}
		dac, _ := KendallTau(a, c)
		dcb, _ := KendallTau(c, b)
		return dab <= dac+dcb // triangle inequality
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestKendallTauNormalized(t *testing.T) {
	a := Ranking{Order: []int{0, 1, 2, 3}}
	b := Ranking{Order: []int{3, 2, 1, 0}}
	got, err := KendallTauNormalized(a, b)
	if err != nil || got != 1 {
		t.Errorf("normalized reversed = %v, %v", got, err)
	}
	one := Ranking{Order: []int{0}}
	if got, err := KendallTauNormalized(one, one); err != nil || got != 0 {
		t.Errorf("singleton = %v, %v", got, err)
	}
}

func TestSpearmanFootrule(t *testing.T) {
	a := Ranking{Order: []int{0, 1, 2}}
	b := Ranking{Order: []int{2, 1, 0}}
	got, err := SpearmanFootrule(a, b)
	if err != nil || got != 4 {
		t.Errorf("footrule = %d, %v; want 4", got, err)
	}
	if _, err := SpearmanFootrule(a, Ranking{Order: []int{0, 1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SpearmanFootrule(a, Ranking{Order: []int{0, 1, 1}}); err == nil {
		t.Error("duplicates accepted")
	}
	if _, err := SpearmanFootrule(a, Ranking{Order: []int{0, 1, 9}}); err == nil {
		t.Error("foreign item accepted")
	}
}

func TestMaxDisplacement(t *testing.T) {
	a := Ranking{Order: []int{0, 1, 2, 3}}
	b := Ranking{Order: []int{1, 2, 3, 0}}
	item, delta, err := MaxDisplacement(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if item != 0 || delta != 3 {
		t.Errorf("MaxDisplacement = item %d delta %d, want item 0 delta 3", item, delta)
	}
	if _, _, err := MaxDisplacement(a, Ranking{Order: []int{0}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := MaxDisplacement(a, Ranking{Order: []int{0, 1, 2, 9}}); err == nil {
		t.Error("foreign item accepted")
	}
}
