package stablerank

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/rank"
)

// ctx is the default context threaded through the cancellable API in
// tests that do not exercise cancellation.
var ctx = context.Background()

// Do and Stream are the package's only query entry points; these helpers
// ask one question through Do and unwrap its result, surfacing the query's
// own error as the call's error.

func one(ctx context.Context, a *Analyzer, q Query) (Result, error) {
	res, err := a.Do(ctx, q)
	if err != nil {
		return Result{}, err
	}
	return res[0], res[0].Err
}

func verify(ctx context.Context, a *Analyzer, r rank.Ranking) (Verification, error) {
	res, err := one(ctx, a, VerifyQuery{Ranking: r})
	if err != nil {
		return Verification{}, err
	}
	return *res.Verification, nil
}

func topH(ctx context.Context, a *Analyzer, h int) ([]Stable, error) {
	res, err := one(ctx, a, TopHQuery{H: h})
	return res.Stables, err
}

func above(ctx context.Context, a *Analyzer, s float64) ([]Stable, error) {
	res, err := one(ctx, a, AboveQuery{Threshold: s})
	return res.Stables, err
}

func itemRank(ctx context.Context, a *Analyzer, item, n int) (mc.RankDistribution, error) {
	res, err := one(ctx, a, ItemRankQuery{Item: item, Samples: n})
	if err != nil {
		return mc.RankDistribution{}, err
	}
	return *res.RankDistribution, nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := New(dataset.MustNew(2)); !errors.Is(err, dataset.ErrEmptyDataset) {
		t.Error("empty dataset accepted")
	}
	one := dataset.MustNew(1)
	one.MustAdd("a", 1)
	if _, err := New(one); err == nil {
		t.Error("1-attribute dataset accepted")
	}
	ds := dataset.Figure1()
	if _, err := New(ds, WithRegion(nil)); err == nil {
		t.Error("nil region accepted")
	}
	if _, err := New(ds, WithRegion(geom.FullSpace{D: 3})); err == nil {
		t.Error("mismatched region accepted")
	}
	if _, err := New(ds, WithCone([]float64{1, 1}, -1)); err == nil {
		t.Error("bad cone accepted")
	}
	if _, err := New(ds, WithCosineSimilarity([]float64{1, 1}, 2)); err == nil {
		t.Error("bad cosine accepted")
	}
	if _, err := New(ds, WithSampleCount(0)); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := New(ds, WithConfidenceLevel(1)); err == nil {
		t.Error("alpha=1 accepted")
	}
	if _, err := New(ds, WithConstraints(3, geom.Halfspace{Normal: geom.Vector{1, 0, 0}})); err == nil {
		t.Error("constraint dimension mismatch accepted")
	}
	a, err := New(ds, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset() != ds || a.Region().Dim() != 2 {
		t.Error("accessors wrong")
	}
}

func TestVerifyStability2DExact(t *testing.T) {
	ds := dataset.Figure1()
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	r := RankingOf(ds, []float64{1, 1})
	v, err := verify(ctx, a, r)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Exact || v.ConfidenceError != 0 || v.Interval == nil {
		t.Errorf("2D verification should be exact: %+v", v)
	}
	if v.Stability <= 0 || v.Stability >= 1 {
		t.Errorf("stability = %v", v.Stability)
	}
	// Infeasible ranking maps to the package sentinel.
	bad := rank.Ranking{Order: []int{0, 1, 2, 3, 4}}
	if _, err := verify(ctx, a, bad); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("infeasible error = %v", err)
	}
}

func TestVerifyStabilityMDMatches2DProjection(t *testing.T) {
	// Verify a 3-attribute dataset against the exact 3D oracle through the
	// public API only: MC stability with small confidence error.
	rr := rand.New(rand.NewSource(151))
	ds := dataset.MustNew(3)
	for i := 0; i < 10; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	a, err := New(ds, WithSampleCount(40000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	r := RankingOf(ds, []float64{1, 1, 1})
	v, err := verify(ctx, a, r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Exact {
		t.Error("3D verification should be Monte-Carlo")
	}
	if v.Stability < 0 || v.Stability > 1 {
		t.Errorf("stability = %v", v.Stability)
	}
	if v.ConfidenceError <= 0 || v.ConfidenceError > 0.05 {
		t.Errorf("confidence error = %v", v.ConfidenceError)
	}
	if v.Constraints == nil {
		t.Error("constraints missing")
	}
	// Determinism: same analyzer setup gives identical estimates.
	b, _ := New(ds, WithSampleCount(40000), WithSeed(3))
	v2, err := verify(ctx, b, r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stability != v2.Stability {
		t.Error("same seed gave different stability estimates")
	}
}

func TestEnumerator2D(t *testing.T) {
	ds := dataset.Figure1()
	a, _ := New(ds)
	e, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	prev := 2.0
	for {
		s, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !s.Exact {
			t.Error("2D enumeration should be exact")
		}
		if s.Stability > prev+1e-12 {
			t.Error("stability order violated")
		}
		prev = s.Stability
		count++
	}
	if count != 11 {
		t.Errorf("enumerated %d rankings, want 11 (Figure 1c)", count)
	}
}

func TestEnumeratorMD(t *testing.T) {
	rr := rand.New(rand.NewSource(152))
	ds := dataset.MustNew(3)
	for i := 0; i < 8; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	a, _ := New(ds, WithSampleCount(20000))
	e, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Exact {
		t.Error("MD enumeration should be Monte-Carlo")
	}
	// The reported stability must agree with verification of the same
	// ranking.
	v, err := verify(ctx, a, s.Ranking)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Stability-s.Stability) > 0.02 {
		t.Errorf("enumerated stability %v vs verified %v", s.Stability, v.Stability)
	}
	// The representative weights induce the ranking.
	if got := rank.Compute(ds, s.Weights); !got.Equal(s.Ranking) {
		t.Error("weights do not induce the enumerated ranking")
	}
}

func TestTopHAndThreshold(t *testing.T) {
	ds := dataset.Figure1()
	a, _ := New(ds)
	top, err := topH(ctx, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("TopH = %d results", len(top))
	}
	all, err := topH(ctx, a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 11 {
		t.Errorf("full TopH = %d", len(all))
	}
	th, err := above(ctx, a, top[1].Stability)
	if err != nil {
		t.Fatal(err)
	}
	if len(th) < 2 {
		t.Errorf("threshold enumeration returned %d", len(th))
	}
	for _, s := range th {
		if s.Stability < top[1].Stability {
			t.Error("threshold violated")
		}
	}
}

func TestConeRestrictedAnalyzer(t *testing.T) {
	ds := dataset.Figure1()
	a, err := New(ds, WithCosineSimilarity([]float64{1, 1}, 0.951))
	if err != nil {
		t.Fatal(err)
	}
	all, err := topH(ctx, a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer rankings fit in the narrow region than in all of U.
	if len(all) >= 11 || len(all) == 0 {
		t.Errorf("cone-restricted enumeration returned %d rankings", len(all))
	}
	var sum float64
	for _, s := range all {
		sum += s.Stability
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cone-restricted stabilities sum to %v", sum)
	}
}

func TestConstraintRegionAnalyzer2D(t *testing.T) {
	ds := dataset.Figure1()
	// w1 <= w2 and 2 w1 >= w2 (Section 3.2's example region).
	a, err := New(ds, WithConstraints(2,
		geom.Halfspace{Normal: geom.Vector{-1, 1}, Positive: true},
		geom.Halfspace{Normal: geom.Vector{2, -1}, Positive: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	all, err := topH(ctx, a, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no rankings in constraint region")
	}
	for _, s := range all {
		ang := geom.Angle2D(s.Weights)
		if ang < math.Pi/4-1e-9 || ang > math.Atan(2)+1e-9 {
			t.Errorf("representative angle %v outside [pi/4, atan2]", ang)
		}
	}
}

func TestRandomizedThroughFacade(t *testing.T) {
	rr := rand.New(rand.NewSource(153))
	ds := dataset.MustNew(3)
	for i := 0; i < 60; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	a, _ := New(ds, WithSeed(5))
	r, err := a.Randomized(mc.TopKSet, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.NextFixedBudget(ctx, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 10 {
		t.Errorf("top-k items = %d", len(res.Items))
	}
	if r.TotalSamples() != 5000 {
		t.Errorf("TotalSamples = %d", r.TotalSamples())
	}
	res2, err := r.NextFixedError(ctx, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Key == res.Key {
		t.Error("fixed-error call repeated the first key")
	}
	// Invalid mode parameters surface as errors.
	if _, err := a.Randomized(mc.TopKSet, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestItemRankDistributionThroughFacade(t *testing.T) {
	ds := dataset.Figure1()
	a, _ := New(ds, WithSeed(21))
	dist, err := itemRank(ctx, a, 1, 5000) // t2
	if err != nil {
		t.Fatal(err)
	}
	if dist.Best != 1 {
		t.Errorf("t2 best rank = %d, want 1", dist.Best)
	}
	if dist.Samples != 5000 {
		t.Errorf("samples = %d", dist.Samples)
	}
	if _, err := itemRank(ctx, a, 99, 10); err == nil {
		t.Error("out-of-range item accepted")
	}
	// Narrow cone around pure-x2 weights: t5 (highest x2) is always first.
	b, _ := New(ds, WithCone([]float64{0.05, 1}, 0.02), WithSeed(22))
	d5, err := itemRank(ctx, b, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if d5.Best != 1 || d5.Worst != 1 {
		t.Errorf("t5 rank range [%d, %d] in x2 cone, want [1, 1]", d5.Best, d5.Worst)
	}
}

func TestRandomizedMatchesExactIn2D(t *testing.T) {
	ds := dataset.Figure1()
	a, _ := New(ds, WithSeed(11))
	exact, err := topH(ctx, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Randomized(mc.Complete, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.NextFixedBudget(ctx, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != exact[0].Ranking.Key() {
		t.Errorf("randomized top %s != exact top %s", res.Key, exact[0].Ranking.Key())
	}
	if math.Abs(res.Stability-exact[0].Stability) > 0.02 {
		t.Errorf("randomized stability %v vs exact %v", res.Stability, exact[0].Stability)
	}
}
