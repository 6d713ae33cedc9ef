package stablerank_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"stablerank"
)

// parallelTestDataset is a 3D catalog (Monte-Carlo engine) shared by the
// parallelism tests.
func parallelTestDataset() *stablerank.Dataset {
	return stablerank.Independent(rand.New(rand.NewSource(11)), 25, 3)
}

func parallelTestAnalyzer(t *testing.T, workers int) *stablerank.Analyzer {
	t.Helper()
	a, err := stablerank.New(parallelTestDataset(),
		stablerank.WithCone([]float64{1, 1, 1}, 0.3),
		stablerank.WithSeed(17),
		stablerank.WithSampleCount(30_000),
		stablerank.WithWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWorkerCountDeterminism is the tentpole's property test: for the same
// seed, worker counts 1, 2 and 8 must produce IDENTICAL Stability and TopH
// results — not statistically close, bit-equal — because the sample pool is
// drawn in fixed chunks seeded by chunk index, never by worker.
func TestWorkerCountDeterminism(t *testing.T) {
	ds := parallelTestDataset()
	ranking := stablerank.RankingOf(ds, []float64{1, 1, 1})
	type outcome struct {
		verify stablerank.Verification
		topH   []stablerank.Stable
	}
	var base outcome
	for i, workers := range []int{1, 2, 8} {
		a := parallelTestAnalyzer(t, workers)
		v, err := a.VerifyStability(ctx, ranking)
		if err != nil {
			t.Fatal(err)
		}
		topH, err := a.TopH(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a.Workers() != workers {
			t.Errorf("Workers() = %d, want %d", a.Workers(), workers)
		}
		if a.PoolBuildDuration() <= 0 {
			t.Errorf("workers=%d: PoolBuildDuration = %v, want > 0", workers, a.PoolBuildDuration())
		}
		if i == 0 {
			base = outcome{verify: v, topH: topH}
			continue
		}
		if v.Stability != base.verify.Stability || v.ConfidenceError != base.verify.ConfidenceError {
			t.Errorf("workers=%d: verify %v±%v, workers=1 gave %v±%v",
				workers, v.Stability, v.ConfidenceError, base.verify.Stability, base.verify.ConfidenceError)
		}
		if len(topH) != len(base.topH) {
			t.Fatalf("workers=%d: %d rankings, workers=1 gave %d", workers, len(topH), len(base.topH))
		}
		for j := range topH {
			if topH[j].Stability != base.topH[j].Stability {
				t.Errorf("workers=%d topH[%d]: stability %v vs %v", workers, j, topH[j].Stability, base.topH[j].Stability)
			}
			if !topH[j].Ranking.Equal(base.topH[j].Ranking) {
				t.Errorf("workers=%d topH[%d]: ranking differs", workers, j)
			}
		}
	}
}

func TestWithWorkersValidation(t *testing.T) {
	if _, err := stablerank.New(parallelTestDataset(), stablerank.WithWorkers(-1)); err == nil {
		t.Error("WithWorkers(-1) accepted")
	}
	a, err := stablerank.New(parallelTestDataset(), stablerank.WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Workers() < 1 {
		t.Errorf("Workers() with default = %d, want >= 1 (GOMAXPROCS)", a.Workers())
	}
}

// TestVerifyBatchMatchesSingleCalls: one Do call verifying several
// rankings (a single fused sweep) returns exactly what per-ranking
// VerifyStability calls return over the same pool.
func TestVerifyBatchMatchesSingleCalls(t *testing.T) {
	ds := parallelTestDataset()
	a := parallelTestAnalyzer(t, 4)
	weights := [][]float64{{1, 1, 1}, {1.2, 1, 0.9}, {0.9, 1.1, 1}}
	queries := make([]stablerank.Query, len(weights))
	for i, w := range weights {
		queries[i] = stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, w)}
	}
	batch, err := a.Do(ctx, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := a.VerifyStability(ctx, q.(stablerank.VerifyQuery).Ranking)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("batch[%d]: unexpected error %v", i, batch[i].Err)
		}
		if v := batch[i].Verification; v.Stability != single.Stability || v.ConfidenceError != single.ConfidenceError {
			t.Errorf("batch[%d]: %v±%v vs single %v±%v",
				i, v.Stability, v.ConfidenceError, single.Stability, single.ConfidenceError)
		}
	}
	if a.PoolBuilds() != 1 {
		t.Errorf("pool built %d times across batch + singles, want 1", a.PoolBuilds())
	}
}

// TestTopHBatchPrefixes: one Do call with several top-h queries runs one
// enumeration and serves every requested h as a prefix of the longest
// answer.
func TestTopHBatchPrefixes(t *testing.T) {
	a := parallelTestAnalyzer(t, 2)
	res, err := a.Do(ctx, stablerank.TopHQuery{H: 2}, stablerank.TopHQuery{H: 5}, stablerank.TopHQuery{H: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results, want 3", len(res))
	}
	if len(res[0].Stables) > 2 || len(res[2].Stables) != 0 {
		t.Fatalf("result sizes %d/%d/%d", len(res[0].Stables), len(res[1].Stables), len(res[2].Stables))
	}
	for i := range res[0].Stables {
		if !res[0].Stables[i].Ranking.Equal(res[1].Stables[i].Ranking) {
			t.Errorf("h=2 answer is not a prefix of h=5 at %d", i)
		}
	}
}

// TestConcurrentBatchQueries hammers one shared Analyzer with concurrent
// multi-verify and multi-top-h Do calls — the race-detector companion of
// the fused plan (CI runs the suite under -race): all goroutines must
// coalesce onto one pool build and observe identical results.
func TestConcurrentBatchQueries(t *testing.T) {
	ds := parallelTestDataset()
	a := parallelTestAnalyzer(t, 4)
	verifies := []stablerank.Query{
		stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, []float64{1, 1, 1})},
		stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, []float64{1.1, 0.9, 1})},
	}
	topHs := []stablerank.Query{stablerank.TopHQuery{H: 3}, stablerank.TopHQuery{H: 1}}
	const goroutines = 16
	results := make([][]stablerank.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				results[g], errs[g] = a.Do(context.Background(), verifies...)
			} else {
				results[g], errs[g] = a.Do(context.Background(), topHs...)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := a.PoolBuilds(); got != 1 {
		t.Errorf("pool built %d times under concurrency, want 1", got)
	}
	for g := 2; g < goroutines; g += 2 {
		for i := range verifies {
			if got, want := results[g][i].Verification.Stability, results[0][i].Verification.Stability; got != want {
				t.Errorf("goroutine %d verify[%d] = %v, goroutine 0 saw %v", g, i, got, want)
			}
		}
	}
	for g := 3; g < goroutines; g += 2 {
		got, want := results[g][0].Stables, results[1][0].Stables
		if len(got) != len(want) {
			t.Fatalf("goroutine %d topH size %d, goroutine 1 saw %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i].Stability != want[i].Stability {
				t.Errorf("goroutine %d topH[%d] stability differs", g, i)
			}
		}
	}
}
