// Tests for adaptive verification: the statistical acceptance guarantee
// (early-stopped answers disagree with full-pool answers no more often than
// the confidence level allows), determinism in the seed and worker count,
// and race-checked concurrent use with a goroutine-census assertion.
package stablerank_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"stablerank"
)

// adaptiveTrialPool is large enough that the first confidence checkpoint
// (4096 rows) is a small prefix, so early stops save well over half the
// sweep.
const adaptiveTrialPool = 50_000

// adaptiveVerify runs one seeded trial: the same verify query against the
// same pool, once adaptively at target and once exactly, returning both.
func adaptiveVerify(t *testing.T, seed int64, target float64, workers int) (adaptive, exact *stablerank.Verification) {
	t.Helper()
	ds := stablerank.Independent(rand.New(rand.NewSource(seed)), 8, 3)
	ranking := stablerank.RankingOf(ds, []float64{1, 1, 1})
	opts := []stablerank.Option{
		stablerank.WithSeed(seed),
		stablerank.WithSampleCount(adaptiveTrialPool),
		stablerank.WithWorkers(workers),
	}
	aa, err := stablerank.New(ds, append(opts, stablerank.WithAdaptive(target))...)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := stablerank.New(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	va, err := aa.VerifyStability(ctx, ranking)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := ae.VerifyStability(ctx, ranking)
	if err != nil {
		t.Fatal(err)
	}
	return &va, &ve
}

// TestAdaptiveStatisticalAcceptance is the acceptance pin for adaptive mode:
// over 200 seeded trials, early-stopped estimates disagree with the
// full-pool estimates by more than the two confidence half-widths combined
// no more often than the 95% level allows (each interval misses the true
// stability with probability at most alpha, so the disagreement rate is
// bounded by 2*alpha plus sampling noise). It is deterministic: the trial
// seeds are fixed, and every trial's answer is a pure function of its seed.
func TestAdaptiveStatisticalAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical acceptance lane; run without -short")
	}
	const (
		trials = 200
		target = 0.02
		alpha  = 0.05
	)
	violations, stops, rowsTotal := 0, 0, 0
	for seed := int64(1); seed <= trials; seed++ {
		va, ve := adaptiveVerify(t, seed, target, 0)
		if ve.Adaptive || ve.SampleCount != adaptiveTrialPool {
			t.Fatalf("seed %d: exact analyzer reported adaptive=%v n=%d", seed, ve.Adaptive, ve.SampleCount)
		}
		if va.Adaptive {
			stops++
			if va.ConfidenceError > target {
				t.Fatalf("seed %d: stopped with confidence error %v above target %v", seed, va.ConfidenceError, target)
			}
			if va.SampleCount >= adaptiveTrialPool {
				t.Fatalf("seed %d: adaptive stop consumed the whole pool (n=%d)", seed, va.SampleCount)
			}
		}
		rowsTotal += va.SampleCount
		if math.Abs(va.Stability-ve.Stability) > va.ConfidenceError+ve.ConfidenceError {
			violations++
		}
	}
	// Most trials must actually stop early — a 50k pool at a 0.02 target
	// needs only a few thousand rows — and the average sweep must be less
	// than half the pool (the >= 2x work saving adaptive mode exists for).
	if stops < trials*3/4 {
		t.Errorf("only %d/%d trials stopped early at target %v", stops, trials, target)
	}
	if avg := float64(rowsTotal) / trials; avg > adaptiveTrialPool/2 {
		t.Errorf("average rows swept %v, want < %d (2x saving)", avg, adaptiveTrialPool/2)
	}
	// Disagreement bound: each interval misses truth w.p. <= alpha, so the
	// two-interval disagreement rate is <= 2*alpha; allow 3 sigma of
	// binomial noise on top. (The shared pool prefix correlates the two
	// estimates, making the true rate far lower still.)
	allowed := 2*alpha*trials + 3*math.Sqrt(trials*2*alpha*(1-2*alpha))
	if float64(violations) > allowed {
		t.Errorf("%d/%d adaptive answers disagreed beyond combined confidence widths (allowed %.0f)",
			violations, trials, allowed)
	}
}

// TestAdaptiveDeterministic: an adaptive answer — estimate, stopping point
// and confidence width — is a pure function of the seed, identical across
// fresh analyzers and worker counts.
func TestAdaptiveDeterministic(t *testing.T) {
	base, _ := adaptiveVerify(t, 77, 0.02, 1)
	if !base.Adaptive {
		t.Fatalf("seed 77 did not stop early: %+v", base)
	}
	for _, workers := range []int{1, 2, 8} {
		got, _ := adaptiveVerify(t, 77, 0.02, workers)
		if got.Stability != base.Stability || got.SampleCount != base.SampleCount ||
			got.ConfidenceError != base.ConfidenceError || got.Adaptive != base.Adaptive {
			t.Errorf("workers=%d: adaptive answer diverged (%+v vs %+v)", workers, got, base)
		}
	}
}

// TestAdaptiveObservability: the facade counters expose early stopping —
// AdaptiveStops counts stopped verifies, AdaptiveRowsSaved the skipped rows
// — and a mixed adaptive batch still builds one pool and sweeps it once.
func TestAdaptiveObservability(t *testing.T) {
	ds := stablerank.Independent(rand.New(rand.NewSource(31)), 8, 3)
	a, err := stablerank.New(ds,
		stablerank.WithSeed(31),
		stablerank.WithSampleCount(adaptiveTrialPool),
		stablerank.WithAdaptive(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AdaptiveTargetError(); got != 0.02 {
		t.Fatalf("AdaptiveTargetError = %v", got)
	}
	r1 := stablerank.RankingOf(ds, []float64{1, 1, 1})
	r2 := stablerank.RankingOf(ds, []float64{3, 1, 1})
	results, err := a.Do(ctx,
		stablerank.VerifyQuery{Ranking: r1},
		stablerank.VerifyQuery{Ranking: r2},
		stablerank.ItemRankQuery{Item: r1.Order[0], Samples: 5000},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	if a.PoolBuilds() != 1 {
		t.Errorf("adaptive batch built the pool %d times, want 1", a.PoolBuilds())
	}
	if a.Sweeps() != 1 {
		t.Errorf("mixed adaptive batch swept the pool %d times, want 1", a.Sweeps())
	}
	stopped := 0
	for _, r := range results[:2] {
		if r.Verification.Adaptive {
			stopped++
		}
	}
	if int64(stopped) != a.AdaptiveStops() {
		t.Errorf("AdaptiveStops = %d, results show %d early stops", a.AdaptiveStops(), stopped)
	}
	if stopped > 0 && a.AdaptiveRowsSaved() <= 0 {
		t.Errorf("AdaptiveRowsSaved = %d with %d stops", a.AdaptiveRowsSaved(), stopped)
	}
	// The item-rank query must still cover its full requested prefix.
	if n := results[2].RankDistribution.Samples; n != 5000 {
		t.Errorf("item-rank swept %d samples under adaptive mode, want 5000", n)
	}
	// WithAdaptive rejects out-of-range targets.
	for _, bad := range []float64{0, -0.1, 1, 2} {
		if _, err := stablerank.New(ds, stablerank.WithAdaptive(bad)); err == nil {
			t.Errorf("WithAdaptive(%v) accepted", bad)
		}
	}
}

// TestAdaptiveConcurrency is the race-checked concurrency pin: one shared
// adaptive analyzer serving Do and Stream from many goroutines must return
// identical results everywhere, leak no goroutines (census assertion like
// TestStreamCancellation), and keep its counters consistent.
func TestAdaptiveConcurrency(t *testing.T) {
	ds := stablerank.Independent(rand.New(rand.NewSource(41)), 8, 3)
	a, err := stablerank.New(ds,
		stablerank.WithSeed(41),
		stablerank.WithSampleCount(adaptiveTrialPool),
		stablerank.WithAdaptive(0.02))
	if err != nil {
		t.Fatal(err)
	}
	ranking := stablerank.RankingOf(ds, []float64{1, 1, 1})
	before := runtime.NumGoroutine()

	const goroutines = 8
	verifications := make([]*stablerank.Verification, goroutines)
	streamed := make([]*stablerank.Verification, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results, err := a.Do(context.Background(),
				stablerank.VerifyQuery{Ranking: ranking},
				stablerank.TopHQuery{H: 2})
			if err != nil || results[0].Err != nil {
				t.Errorf("goroutine %d: Do failed: %v / %v", g, err, results[0].Err)
				return
			}
			verifications[g] = results[0].Verification
			// Stream of a verify query yields its single batch result.
			for res, err := range a.Stream(context.Background(), stablerank.VerifyQuery{Ranking: ranking}) {
				if err != nil {
					t.Errorf("goroutine %d: Stream failed: %v", g, err)
					return
				}
				streamed[g] = res.Verification
			}
		}(g)
	}
	wg.Wait()

	base := verifications[0]
	if base == nil || !base.Adaptive {
		t.Fatalf("shared adaptive analyzer did not stop early: %+v", base)
	}
	for g := 1; g < goroutines; g++ {
		v := verifications[g]
		if v == nil || v.Stability != base.Stability || v.SampleCount != base.SampleCount || v.Adaptive != base.Adaptive {
			t.Errorf("goroutine %d: Do verification diverged (%+v vs %+v)", g, v, base)
		}
	}
	for g := 0; g < goroutines; g++ {
		v := streamed[g]
		if v == nil || v.Stability != base.Stability || v.SampleCount != base.SampleCount {
			t.Errorf("goroutine %d: Stream verification diverged (%+v vs %+v)", g, v, base)
		}
	}
	if a.PoolBuilds() != 1 {
		t.Errorf("concurrent adaptive use built the pool %d times, want 1", a.PoolBuilds())
	}
	// 2 early-stopping verifies per goroutine (one Do, one Stream).
	if got, want := a.AdaptiveStops(), int64(2*goroutines); got != want {
		t.Errorf("AdaptiveStops = %d, want %d", got, want)
	}
	if saved := a.AdaptiveRowsSaved(); saved != int64(2*goroutines)*int64(adaptiveTrialPool-base.SampleCount) {
		t.Errorf("AdaptiveRowsSaved = %d, inconsistent with %d stops at n=%d",
			saved, 2*goroutines, base.SampleCount)
	}

	// Goroutine census: every sweep worker must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across concurrent adaptive queries: %d -> %d", before, after)
	}
}

// TestAdaptiveCancellation: cancelling mid-adaptive-sweep returns the
// context error, leaves no partial verification behind, and the next call on
// the same analyzer succeeds.
func TestAdaptiveCancellation(t *testing.T) {
	ds := stablerank.Independent(rand.New(rand.NewSource(43)), 8, 3)
	a, err := stablerank.New(ds,
		stablerank.WithSeed(43),
		stablerank.WithSampleCount(adaptiveTrialPool),
		stablerank.WithAdaptive(0.02))
	if err != nil {
		t.Fatal(err)
	}
	ranking := stablerank.RankingOf(ds, []float64{1, 1, 1})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.VerifyStability(cancelled, ranking); err == nil {
		t.Fatal("cancelled adaptive verify succeeded")
	}
	v, err := a.VerifyStability(ctx, ranking)
	if err != nil {
		t.Fatalf("adaptive verify after cancellation: %v", err)
	}
	if v.Stability <= 0 || v.Stability >= 1 {
		t.Errorf("implausible stability %v", v.Stability)
	}
}
