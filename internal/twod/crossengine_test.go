package twod

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// Cross-engine agreement properties: on random small 2D datasets the exact
// 2D engine, the multi-dimensional delayed-arrangement engine, and the
// randomized Monte-Carlo operator are three independent implementations of
// the same stability semantics, so their answers about the most stable
// ranking must coincide within Monte-Carlo confidence bounds. Seeds are
// fixed, so the checks are deterministic.

// mcBound is a conservative (~5 sigma plus discretization) deviation bound
// for a binomial stability estimate from n samples.
func mcBound(p float64, n int) float64 {
	return 5*math.Sqrt(p*(1-p)/float64(n)) + 2/float64(n)
}

// drawPool2D samples the full 2D function space n times.
func drawPool2D(t *testing.T, seed int64, n int) vecmat.Matrix {
	t.Helper()
	s, err := sampling.NewUniform(2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	pool := vecmat.New(n, 2)
	for i := 0; i < n; i++ {
		if err := s.SampleInto(pool.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return pool
}

func TestCrossEngineTopRankingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine agreement needs Monte-Carlo sample volume")
	}
	ctx := context.Background()
	const n = 40_000
	rr := rand.New(rand.NewSource(7001))
	for trial := 0; trial < 6; trial++ {
		ds := randDataset(rr, 5+rr.Intn(6))

		// Ground truth: the exact 2D enumerator's most stable ranking.
		en, err := NewEnumerator(ds, fullU())
		if err != nil {
			t.Fatal(err)
		}
		top, err := en.Next()
		if err != nil {
			t.Fatal(err)
		}
		exactTop := top.Stability

		pool := drawPool2D(t, int64(9000+trial), n)

		// Engine 2: the MD delayed-arrangement engine over the same space.
		eng, err := md.NewEngineMatrix(ds, geom.FullSpace{D: 2}, pool.Clone(), md.SamplePartition)
		if err != nil {
			t.Fatal(err)
		}
		mdTop, err := eng.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The MD estimate must match the exact stability of the ranking it
		// returned...
		mdExact := exactOf(t, ds, mdTop.Ranking)
		if diff := math.Abs(mdTop.Stability - mdExact); diff > mcBound(mdExact, n) {
			t.Errorf("trial %d: md engine estimate %v vs exact %v (diff %v > bound %v)",
				trial, mdTop.Stability, mdExact, diff, mcBound(mdExact, n))
		}
		// ...and its pick must be top-ranked up to Monte-Carlo noise.
		if mdExact < exactTop-mcBound(exactTop, n) {
			t.Errorf("trial %d: md engine top ranking has exact stability %v, true top is %v",
				trial, mdExact, exactTop)
		}

		// Engine 2b: the MD sampled verification oracle on the exact top
		// ranking agrees with the exact stability.
		sv, err := md.VerifyMatrix(ctx, ds, top.Ranking, pool)
		if err != nil {
			t.Fatalf("trial %d: md verify: %v", trial, err)
		}
		if diff := math.Abs(sv.Stability - exactTop); diff > mcBound(exactTop, n) {
			t.Errorf("trial %d: md verify %v vs exact %v (diff %v > bound %v)",
				trial, sv.Stability, exactTop, diff, mcBound(exactTop, n))
		}

		// Engine 3: the randomized GET-NEXTr operator's first result.
		sampler, err := sampling.NewUniform(2, rand.New(rand.NewSource(int64(100+trial))))
		if err != nil {
			t.Fatal(err)
		}
		op, err := mc.NewOperator(ds, sampler, mc.WithMode(mc.Complete, 0))
		if err != nil {
			t.Fatal(err)
		}
		mcTop, err := op.NextFixedBudget(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		mcExact := exactOf(t, ds, rank.Ranking{Order: mcTop.Items})
		if diff := math.Abs(mcTop.Stability - mcExact); diff > mcBound(mcExact, n) {
			t.Errorf("trial %d: mc estimate %v vs exact %v (diff %v > bound %v)",
				trial, mcTop.Stability, mcExact, diff, mcBound(mcExact, n))
		}
		if mcExact < exactTop-mcBound(exactTop, n) {
			t.Errorf("trial %d: mc top ranking has exact stability %v, true top is %v",
				trial, mcExact, exactTop)
		}
	}
}

// TestCrossEngineFullDistributionAgreement compares the complete stability
// distribution: every ranking the MD engine emits must carry an estimate
// within confidence bounds of its exact 2D stability, and the engines must
// discover the same heavyweight regions.
func TestCrossEngineFullDistributionAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine agreement needs Monte-Carlo sample volume")
	}
	ctx := context.Background()
	const n = 40_000
	rr := rand.New(rand.NewSource(7002))
	for trial := 0; trial < 3; trial++ {
		ds := randDataset(rr, 4+rr.Intn(4))
		exact, err := EnumerateAll(ds, fullU())
		if err != nil {
			t.Fatal(err)
		}
		exactByKey := make(map[string]float64, len(exact))
		for _, r := range exact {
			exactByKey[r.Ranking.Key()] = r.Stability
		}

		pool := drawPool2D(t, int64(9100+trial), n)
		eng, err := md.NewEngineMatrix(ds, geom.FullSpace{D: 2}, pool, md.SamplePartition)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for {
			res, err := eng.Next(ctx)
			if err != nil {
				break // exhausted
			}
			seen[res.Ranking.Key()] = true
			want, ok := exactByKey[res.Ranking.Key()]
			if !ok {
				t.Errorf("trial %d: md engine emitted a ranking the exact engine says is infeasible", trial)
				continue
			}
			if diff := math.Abs(res.Stability - want); diff > mcBound(want, n) {
				t.Errorf("trial %d: ranking %s estimate %v vs exact %v (bound %v)",
					trial, res.Ranking.Key(), res.Stability, want, mcBound(want, n))
			}
		}
		// Every region heavy enough that n samples cannot miss it must have
		// been found (a region of stability p is missed with prob (1-p)^n).
		for key, p := range exactByKey {
			if p > 0.001 && !seen[key] {
				t.Errorf("trial %d: md engine missed ranking %s with exact stability %v", trial, key, p)
			}
		}
	}
}

// exactOf returns the exact 2D stability of r, or 0 when r is infeasible.
func exactOf(t *testing.T, ds *dataset.Dataset, r rank.Ranking) float64 {
	t.Helper()
	res, err := Verify(ds, r, fullU())
	if err != nil {
		return 0
	}
	return res.Stability
}
