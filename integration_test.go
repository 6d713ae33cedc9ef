// Integration tests spanning the whole stack: the exact 2D algorithms, the
// exact 3D Girard oracle, the multi-dimensional engine, the randomized
// operators, the LP substrate and the core facade are cross-validated
// against each other on shared inputs.
package stablerank_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank"

	"stablerank/internal/datagen"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/lp"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

// ctx is the default context threaded through the cancellable public API.
var ctx = context.Background()

// TestAllPathsAgreeIn2D checks that every implementation strategy reports
// the same most-stable ranking with consistent stability on the same 2D
// input: exact ray sweep, MD engine over samples, randomized operator, and
// the core facade.
func TestAllPathsAgreeIn2D(t *testing.T) {
	rr := rand.New(rand.NewSource(171))
	ds := dataset.MustNew(2)
	for i := 0; i < 15; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64())
	}
	full2 := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}

	exact, err := twod.EnumerateAll(ds, full2)
	if err != nil {
		t.Fatal(err)
	}
	topKey := exact[0].Ranking.Key()
	topStab := exact[0].Stability

	// MD engine path.
	pool := benchPool(geom.FullSpace{D: 2}, 40000, 172)
	engine, err := md.NewEngineMatrix(ds, geom.FullSpace{D: 2}, pool, md.SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	mdFirst, err := engine.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mdFirst.Ranking.Key() != topKey {
		t.Errorf("engine top %s != exact top %s", mdFirst.Ranking.Key(), topKey)
	}
	if math.Abs(mdFirst.Stability-topStab) > 0.02 {
		t.Errorf("engine stability %v vs exact %v", mdFirst.Stability, topStab)
	}

	// Randomized path.
	s, err := sampling.NewUniform(2, rand.New(rand.NewSource(173)))
	if err != nil {
		t.Fatal(err)
	}
	op, err := mc.NewOperator(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	mcFirst, err := op.NextFixedBudget(ctx, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if mcFirst.Key != topKey {
		t.Errorf("randomized top %s != exact top %s", mcFirst.Key, topKey)
	}
	if math.Abs(mcFirst.Stability-topStab) > 0.02 {
		t.Errorf("randomized stability %v vs exact %v", mcFirst.Stability, topStab)
	}

	// Facade path.
	a, err := stablerank.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	top, err := a.TopH(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Ranking.Key() != topKey || math.Abs(top[0].Stability-topStab) > 1e-12 {
		t.Errorf("facade top (%s, %v) != exact (%s, %v)",
			top[0].Ranking.Key(), top[0].Stability, topKey, topStab)
	}
}

// TestEngineStabilitiesMatchGirardIn3D enumerates the full arrangement of a
// 3D dataset and validates every Monte-Carlo stability against the exact
// spherical-polygon area, and the total against 1.
func TestEngineStabilitiesMatchGirardIn3D(t *testing.T) {
	rr := rand.New(rand.NewSource(174))
	ds := dataset.MustNew(3)
	for i := 0; i < 7; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	pool := benchPool(geom.FullSpace{D: 3}, 60000, 175)
	all, err := md.FullArrangement(ctx, ds, geom.FullSpace{D: 3}, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mcSum, exactSum float64
	for _, r := range all {
		exact, err := md.VerifyExact3D(ds, r.Ranking)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Stability-exact) > 0.02 {
			t.Errorf("ranking %s: MC %v vs Girard %v", r.Ranking.Key(), r.Stability, exact)
		}
		mcSum += r.Stability
		exactSum += exact
	}
	if math.Abs(mcSum-1) > 1e-9 {
		t.Errorf("MC stabilities sum to %v", mcSum)
	}
	// Exact areas of the discovered regions should cover nearly everything
	// (slivers without samples may be missing).
	if exactSum < 0.97 || exactSum > 1+1e-9 {
		t.Errorf("exact stabilities sum to %v", exactSum)
	}
}

// TestConstraintRegionPipeline exercises the full constraint-region path:
// central ray and bounding cone via LP, rejection sampling, engine
// enumeration, and representative membership.
func TestConstraintRegionPipeline(t *testing.T) {
	rr := rand.New(rand.NewSource(176))
	ds := dataset.MustNew(3)
	for i := 0; i < 10; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	region, err := geom.NewConstraintRegion(3,
		geom.Halfspace{Normal: geom.Vector{1, -1, 0}, Positive: true}, // w1 >= w2
		geom.Halfspace{Normal: geom.Vector{0, 1, -1}, Positive: true}, // w2 >= w3
	)
	if err != nil {
		t.Fatal(err)
	}
	axis, theta, err := lp.CentralRay(region)
	if err != nil {
		t.Fatal(err)
	}
	if !region.Contains(axis) {
		t.Fatal("central ray outside region")
	}
	// Every region sample is inside the bounding cone.
	samp, err := sampling.ForRegion(region, rand.New(rand.NewSource(177)))
	if err != nil {
		t.Fatal(err)
	}
	pool := vecmat.New(20000, 3)
	for i := 0; i < pool.Rows(); i++ {
		w := geom.Vector(pool.Row(i))
		if err := sampling.Into(samp, w); err != nil {
			t.Fatal(err)
		}
		a, err := geom.Angle(w, axis)
		if err != nil {
			t.Fatal(err)
		}
		if a > theta+1e-9 {
			t.Fatalf("region sample at angle %v outside bounding cone %v", a, theta)
		}
	}
	engine, err := md.NewEngineMatrix(ds, region, pool, md.SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for {
		r, err := engine.Next(ctx)
		if errors.Is(err, md.ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !region.Contains(r.Weights) {
			t.Errorf("representative %v outside the constraint region", r.Weights)
		}
		sum += r.Stability
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("constraint-region stabilities sum to %v", sum)
	}
}

// TestCSVThroughFullPipeline round-trips a generated catalog through CSV and
// verifies analysis results survive the encoding.
func TestCSVThroughFullPipeline(t *testing.T) {
	ds := datagen.Diamonds(rand.New(rand.NewSource(178)), 300)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1, 1, 1, 1}
	r1 := stablerank.RankingOf(ds, w)
	r2 := stablerank.RankingOf(back, w)
	if !r1.Equal(r2) {
		t.Fatal("ranking changed across CSV round trip")
	}
	a1, err := stablerank.New(ds, stablerank.WithSampleCount(20000), stablerank.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := stablerank.New(back, stablerank.WithSampleCount(20000), stablerank.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := a1.VerifyStability(ctx, r1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a2.VerifyStability(ctx, r2)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Stability != v2.Stability {
		t.Errorf("stability changed across CSV round trip: %v vs %v", v1.Stability, v2.Stability)
	}
}

// TestTopKSelectionInsideOperators confirms that the top-k fast path and the
// full-sort path count identical keys, end to end through the operator.
func TestTopKSelectionInsideOperators(t *testing.T) {
	rr := rand.New(rand.NewSource(179))
	ds := dataset.MustNew(3)
	for i := 0; i < 200; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	k := 7
	// Fast path (operator internally uses TopKSelect).
	sFast, _ := sampling.NewUniform(3, rand.New(rand.NewSource(180)))
	fast, err := mc.NewOperator(ds, sFast, mc.WithMode(mc.TopKRanked, k))
	if err != nil {
		t.Fatal(err)
	}
	resFast, err := fast.NextFixedBudget(ctx, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: count full-sort prefixes with the identical sample stream.
	sRef, _ := sampling.NewUniform(3, rand.New(rand.NewSource(180)))
	counts := map[string]int{}
	comp := rank.NewComputer(ds)
	for i := 0; i < 4000; i++ {
		w, err := sRef.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[comp.Compute(w).Clone().TopKRankedKey(k)]++
	}
	bestKey, bestCount := "", -1
	for key, c := range counts {
		if c > bestCount || (c == bestCount && key < bestKey) {
			bestKey, bestCount = key, c
		}
	}
	if resFast.Key != bestKey {
		t.Errorf("operator key %s != reference key %s", resFast.Key, bestKey)
	}
	if math.Abs(resFast.Stability-float64(bestCount)/4000) > 1e-12 {
		t.Errorf("operator stability %v != reference %v", resFast.Stability, float64(bestCount)/4000)
	}
}
