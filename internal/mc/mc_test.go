package mc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/twod"
)

// ctx is the default context threaded through the cancellable API in
// tests that do not exercise cancellation.
var ctx = context.Background()

func newOp(t *testing.T, ds *dataset.Dataset, roi geom.Region, seed int64, opts ...Option) *Operator {
	t.Helper()
	s, err := sampling.ForRegion(roi, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOperator(ds, s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFixedBudgetMatchesExact2D(t *testing.T) {
	// On Figure 1 the exact region spans are known; GET-NEXTr must recover
	// the top rankings with matching stabilities.
	ds := dataset.Figure1()
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	exact, err := twod.EnumerateAll(ds, full)
	if err != nil {
		t.Fatal(err)
	}
	o := newOp(t, ds, geom.FullSpace{D: 2}, 131)
	for i := 0; i < 3; i++ {
		res, err := o.NextFixedBudget(ctx, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Key != exact[i].Ranking.Key() {
			t.Errorf("call %d: key %s, want %s", i, res.Key, exact[i].Ranking.Key())
		}
		if math.Abs(res.Stability-exact[i].Stability) > 0.02 {
			t.Errorf("call %d: stability %v, want %v", i, res.Stability, exact[i].Stability)
		}
		if res.ConfidenceError <= 0 || res.ConfidenceError > 0.02 {
			t.Errorf("call %d: confidence error %v out of expected range", i, res.ConfidenceError)
		}
	}
}

func TestFixedBudgetAccumulatesAcrossCalls(t *testing.T) {
	ds := dataset.Figure1()
	o := newOp(t, ds, geom.FullSpace{D: 2}, 132)
	r1, err := o.NextFixedBudget(ctx, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalSamples != 1000 || r1.SamplesUsed != 1000 {
		t.Errorf("first call totals: %+v", r1)
	}
	r2, err := o.NextFixedBudget(ctx, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalSamples != 1500 || r2.SamplesUsed != 500 {
		t.Errorf("second call totals: used=%d total=%d", r2.SamplesUsed, r2.TotalSamples)
	}
	if r2.Key == r1.Key {
		t.Error("second call repeated the first ranking")
	}
	if r2.Stability > r1.Stability+0.05 {
		t.Errorf("stability order violated: %v then %v", r1.Stability, r2.Stability)
	}
}

func TestFixedBudgetExhaustion(t *testing.T) {
	// Two items, one exchange: at most 2 rankings exist.
	ds := dataset.MustNew(2)
	ds.MustAdd("a", 0.9, 0.1)
	ds.MustAdd("b", 0.1, 0.9)
	o := newOp(t, ds, geom.FullSpace{D: 2}, 133)
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		r, err := o.NextFixedBudget(ctx, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Key] {
			t.Error("duplicate ranking returned")
		}
		seen[r.Key] = true
	}
	if _, err := o.NextFixedBudget(ctx, 2000); !errors.Is(err, ErrExhausted) {
		t.Errorf("expected ErrExhausted, got %v", err)
	}
}

func TestFixedBudgetZeroAfterObservations(t *testing.T) {
	ds := dataset.Figure1()
	o := newOp(t, ds, geom.FullSpace{D: 2}, 134)
	if _, err := o.NextFixedBudget(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	// Zero fresh samples: should still return the next-best observed key.
	r, err := o.NextFixedBudget(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.SamplesUsed != 0 {
		t.Errorf("SamplesUsed = %d", r.SamplesUsed)
	}
	if _, err := o.NextFixedBudget(ctx, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestFixedErrorReachesTarget(t *testing.T) {
	ds := dataset.Figure1()
	o := newOp(t, ds, geom.FullSpace{D: 2}, 135)
	res, err := o.NextFixedError(ctx, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfidenceError > 0.01 {
		t.Errorf("confidence error %v above target", res.ConfidenceError)
	}
	// The Figure 1 top region spans ~0.2-0.4 of the quadrant; sample count
	// should be in the ballpark of Equation 11.
	if res.TotalSamples < 100 || res.TotalSamples > 50000 {
		t.Errorf("suspicious sample count %d", res.TotalSamples)
	}
}

func TestFixedErrorBudgetCap(t *testing.T) {
	ds := dataset.Figure1()
	o := newOp(t, ds, geom.FullSpace{D: 2}, 136)
	if _, err := o.NextFixedError(ctx, 1e-9, 1000); !errors.Is(err, ErrBudget) {
		t.Errorf("expected ErrBudget, got %v", err)
	}
	if _, err := o.NextFixedError(ctx, 0, 0); err == nil {
		t.Error("zero error target accepted")
	}
}

func TestTopKSetVersusRanked(t *testing.T) {
	// Top-k sets aggregate over orderings, so the top set stability is at
	// least the top ranked stability (Figures 17 and 20).
	rr := rand.New(rand.NewSource(137))
	ds := dataset.MustNew(3)
	for i := 0; i < 50; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	roi := geom.FullSpace{D: 3}
	k := 5
	set := newOp(t, ds, roi, 138, WithMode(TopKSet, k))
	ranked := newOp(t, ds, roi, 138, WithMode(TopKRanked, k))
	rs, err := set.NextFixedBudget(ctx, 20000)
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := ranked.NextFixedBudget(ctx, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stability < rr2.Stability-0.02 {
		t.Errorf("set stability %v < ranked stability %v", rs.Stability, rr2.Stability)
	}
	if len(rs.Items) != k || len(rr2.Items) != k {
		t.Errorf("item counts: %d, %d", len(rs.Items), len(rr2.Items))
	}
	if !sort.IntsAreSorted(rs.Items) {
		t.Error("set mode items not canonicalized")
	}
}

func TestTopKSetKeysAggregateOrder(t *testing.T) {
	// With 3 items all mutually incomparable and k = n, the set mode has
	// exactly one key while ranked mode has several.
	ds := dataset.MustNew(2)
	ds.MustAdd("a", 0.9, 0.1)
	ds.MustAdd("b", 0.5, 0.5)
	ds.MustAdd("c", 0.1, 0.9)
	set := newOp(t, ds, geom.FullSpace{D: 2}, 139, WithMode(TopKSet, 3))
	r, err := set.NextFixedBudget(ctx, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Stability-1) > 1e-9 {
		t.Errorf("full-set stability = %v, want 1", r.Stability)
	}
	if set.DistinctObserved() != 1 {
		t.Errorf("distinct sets = %d, want 1", set.DistinctObserved())
	}
	ranked := newOp(t, ds, geom.FullSpace{D: 2}, 140, WithMode(TopKRanked, 3))
	if _, err := ranked.NextFixedBudget(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	if ranked.DistinctObserved() < 2 {
		t.Errorf("distinct ranked prefixes = %d, want >= 2", ranked.DistinctObserved())
	}
}

// The Section 2.2.5 toy example: the most stable top-3 set is {t2, t3, t4},
// not a subset of the skyline {t1, t2, t5}.
func TestStableTopKNotSkyline(t *testing.T) {
	ds := dataset.Toy225()
	o := newOp(t, ds, geom.FullSpace{D: 2}, 141, WithMode(TopKSet, 3))
	r, err := o.NextFixedBudget(ctx, 30000)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3} // t2, t3, t4 (0-indexed)
	if len(r.Items) != 3 || r.Items[0] != want[0] || r.Items[1] != want[1] || r.Items[2] != want[2] {
		t.Fatalf("most stable top-3 = %v, want %v", r.Items, want)
	}
	sky := ds.Skyline()
	inSky := map[int]bool{}
	for _, i := range sky {
		inSky[i] = true
	}
	overlap := 0
	for _, i := range r.Items {
		if inSky[i] {
			overlap++
		}
	}
	if overlap != 1 {
		t.Errorf("stable top-3 shares %d items with the skyline, paper says 1 (only t2)", overlap)
	}
}

func TestRepresentativeWeightsInduceKey(t *testing.T) {
	rr := rand.New(rand.NewSource(142))
	ds := dataset.MustNew(3)
	for i := 0; i < 30; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	o := newOp(t, ds, geom.FullSpace{D: 3}, 143)
	for i := 0; i < 3; i++ {
		res, err := o.NextFixedBudget(ctx, 5000)
		if err != nil {
			t.Fatal(err)
		}
		got := rank.Compute(ds, res.Weights)
		if got.Key() != res.Key {
			t.Errorf("representative weights do not reproduce the ranking")
		}
	}
}

func TestOperatorValidation(t *testing.T) {
	ds := dataset.Figure1()
	s, _ := sampling.NewUniform(2, rand.New(rand.NewSource(1)))
	if _, err := NewOperator(nil, s); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := NewOperator(dataset.MustNew(2), s); !errors.Is(err, dataset.ErrEmptyDataset) {
		t.Error("empty dataset accepted")
	}
	if _, err := NewOperator(ds, nil); err == nil {
		t.Error("nil sampler accepted")
	}
	s3, _ := sampling.NewUniform(3, rand.New(rand.NewSource(1)))
	if _, err := NewOperator(ds, s3); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewOperator(ds, s, WithMode(TopKSet, 0)); err == nil {
		t.Error("k=0 accepted for top-k mode")
	}
	if _, err := NewOperator(ds, s, WithMode(Mode(9), 1)); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewOperator(ds, s, WithConfidenceLevel(0)); err == nil {
		t.Error("alpha=0 accepted")
	}
	if Complete.String() != "complete" || TopKSet.String() != "top-k set" ||
		TopKRanked.String() != "ranked top-k" || Mode(9).String() == "" {
		t.Error("mode strings wrong")
	}
}

func TestTopHHelper(t *testing.T) {
	rr := rand.New(rand.NewSource(144))
	ds := dataset.MustNew(3)
	for i := 0; i < 40; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	o := newOp(t, ds, geom.FullSpace{D: 3}, 145, WithMode(TopKSet, 5))
	results, err := o.TopH(ctx, 10, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	seen := map[string]bool{}
	for i, r := range results {
		if seen[r.Key] {
			t.Errorf("duplicate key at %d", i)
		}
		seen[r.Key] = true
	}
	// Roughly decreasing stability (Monte-Carlo noise tolerated).
	for i := 1; i < len(results); i++ {
		if results[i].Stability > results[i-1].Stability+0.05 {
			t.Errorf("stability at %d (%v) far above predecessor (%v)", i, results[i].Stability, results[i-1].Stability)
		}
	}
}

// Empirical check of Theorem 2: the average first-discovery time of the top
// ranking approximates 1/S(r).
func TestDiscoveryCostEmpirical(t *testing.T) {
	ds := dataset.Figure1()
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	exact, err := twod.EnumerateAll(ds, full)
	if err != nil {
		t.Fatal(err)
	}
	target := exact[0].Ranking.Key()
	s := exact[0].Stability
	rr := rand.New(rand.NewSource(146))
	u, _ := sampling.NewUniform(2, rr)
	comp := rank.NewComputer(ds)
	trials := 300
	var total float64
	for i := 0; i < trials; i++ {
		n := 0
		for {
			w, err := u.Sample()
			if err != nil {
				t.Fatal(err)
			}
			n++
			if comp.Compute(w).Key() == target {
				break
			}
		}
		total += float64(n)
	}
	got := total / float64(trials)
	want := 1 / s
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("empirical discovery cost %v, Theorem 2 predicts %v", got, want)
	}
}
