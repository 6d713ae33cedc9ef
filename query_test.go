// Tests for the unified query API: plan sharing (one pool build, one fused
// sweep), bit-identity with the per-operation wrappers, per-query errors,
// and streaming semantics including cancellation promptness.
package stablerank_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"stablerank"
)

// newMDAnalyzer builds a fresh 3D analyzer with a fixed seed; two calls give
// analyzers whose results must agree bit for bit.
func newMDAnalyzer(t *testing.T) (*stablerank.Analyzer, *stablerank.Dataset) {
	t.Helper()
	ds := stablerank.Independent(rand.New(rand.NewSource(23)), 10, 3)
	a, err := stablerank.New(ds, stablerank.WithSampleCount(12000), stablerank.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	return a, ds
}

// TestDoFusedSharing is the acceptance pin for the query planner: a
// heterogeneous Do call mixing verify, top-h and item-rank queries builds
// the sample pool exactly once and performs exactly one fused sweep, and its
// results are bit-identical to the per-operation methods at the same seed.
func TestDoFusedSharing(t *testing.T) {
	fused, ds := newMDAnalyzer(t)
	reference := stablerank.RankingOf(ds, []float64{1, 1, 1})
	skewed := stablerank.RankingOf(ds, []float64{3, 1, 1})

	results, err := fused.Do(ctx,
		stablerank.VerifyQuery{Ranking: reference},
		stablerank.VerifyQuery{Ranking: skewed},
		stablerank.TopHQuery{H: 4},
		stablerank.ItemRankQuery{Item: reference.Order[0], Samples: 5000},
		stablerank.AboveQuery{Threshold: 0.05},
		stablerank.BoundaryQuery{Ranking: reference},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", i, r.Err)
		}
	}
	if got := fused.PoolBuilds(); got != 1 {
		t.Errorf("heterogeneous Do built the pool %d times, want 1", got)
	}
	if got := fused.Sweeps(); got != 1 {
		t.Errorf("heterogeneous Do performed %d fused sweeps, want 1", got)
	}

	// A second analyzer with identical configuration answers the same
	// questions through the per-operation wrappers; every number must match
	// bit for bit.
	solo, _ := newMDAnalyzer(t)
	v0, err := solo.VerifyStability(ctx, reference)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := solo.VerifyStability(ctx, skewed)
	if err != nil {
		t.Fatal(err)
	}
	top, err := solo.TopH(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := solo.ItemRankDistribution(ctx, reference.Order[0], 5000)
	if err != nil {
		t.Fatal(err)
	}
	above, err := solo.AboveThreshold(ctx, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	if got := *results[0].Verification; got.Stability != v0.Stability || got.ConfidenceError != v0.ConfidenceError {
		t.Errorf("fused verify[0] = %+v, per-op = %+v", got, v0)
	}
	if got := *results[1].Verification; got.Stability != v1.Stability {
		t.Errorf("fused verify[1] stability = %v, per-op = %v", got.Stability, v1.Stability)
	}
	if len(results[2].Stables) != len(top) {
		t.Fatalf("fused toph returned %d, per-op %d", len(results[2].Stables), len(top))
	}
	for i := range top {
		f, s := results[2].Stables[i], top[i]
		if f.Stability != s.Stability || !f.Ranking.Equal(s.Ranking) {
			t.Errorf("toph[%d]: fused %v vs per-op %v", i, f.Stability, s.Stability)
		}
	}
	got := *results[3].RankDistribution
	if got.Samples != dist.Samples || got.Best != dist.Best || got.Worst != dist.Worst || len(got.Counts) != len(dist.Counts) {
		t.Errorf("fused itemrank = %+v, per-op = %+v", got, dist)
	}
	for r, c := range dist.Counts {
		if got.Counts[r] != c {
			t.Errorf("itemrank count[%d]: fused %d, per-op %d", r, got.Counts[r], c)
		}
	}
	if len(results[4].Stables) != len(above) {
		t.Errorf("fused above returned %d, per-op %d", len(results[4].Stables), len(above))
	}
	if len(results[5].Facets) == 0 {
		t.Error("boundary query returned no facets")
	}
}

// TestDoSharedEnumeration checks every enumeration-shaped query in a batch
// takes a prefix of one shared pass rather than re-running the cursor.
func TestDoSharedEnumeration(t *testing.T) {
	a, err := stablerank.New(stablerank.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.Do(ctx,
		stablerank.TopHQuery{H: 3},
		stablerank.EnumerateQuery{}, // exhaust: Figure 1 has 11 rankings
		stablerank.AboveQuery{Threshold: 0.10},
		stablerank.TopHQuery{H: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	all := results[1].Stables
	if len(all) != 11 {
		t.Fatalf("enumerate-all returned %d rankings, want 11", len(all))
	}
	if len(results[0].Stables) != 3 {
		t.Fatalf("toph(3) returned %d", len(results[0].Stables))
	}
	for i := range results[0].Stables {
		if !results[0].Stables[i].Ranking.Equal(all[i].Ranking) {
			t.Errorf("toph[%d] is not a prefix of the shared enumeration", i)
		}
	}
	for i, s := range results[2].Stables {
		if s.Stability < 0.10 {
			t.Errorf("above[%d] stability %v below threshold", i, s.Stability)
		}
	}
	if n := len(results[2].Stables); n == 0 || n >= 11 {
		t.Errorf("above(0.10) returned %d of 11", n)
	}
	if results[3].Stables != nil {
		t.Errorf("toph(0) = %v, want nil", results[3].Stables)
	}
}

// TestDoPerQueryErrors checks one query's failure leaves its neighbours
// untouched and surfaces the facade sentinels.
func TestDoPerQueryErrors(t *testing.T) {
	a, ds := newMDAnalyzer(t)
	infeasible := stablerank.Ranking{Order: make([]int, ds.N())}
	for i := range infeasible.Order {
		infeasible.Order[i] = i
	}
	good := stablerank.RankingOf(ds, []float64{1, 1, 1})
	results, err := a.Do(ctx,
		stablerank.VerifyQuery{Ranking: infeasible},
		stablerank.VerifyQuery{Ranking: good},
		stablerank.ItemRankQuery{Item: 999},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The identity permutation of a random dataset is near-certainly
	// infeasible; tolerate the rare feasible draw but require the good query
	// to succeed either way.
	if results[0].Err != nil && !errors.Is(results[0].Err, stablerank.ErrInfeasibleRanking) {
		t.Errorf("infeasible verify error = %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Verification == nil {
		t.Errorf("good verify alongside a failing one: %+v", results[1])
	}
	if results[2].Err == nil {
		t.Error("item 999 should fail")
	}
	if _, err := a.Do(ctx, nil); err != nil {
		t.Fatalf("Do with a nil query must not fail the call: %v", err)
	} else if res, _ := a.Do(ctx, nil); res[0].Err == nil {
		t.Error("nil query should carry a per-query error")
	}
}

// TestDoErrorText pins the executor's own error texts byte for byte:
// /v1/query renders a result's error verbatim. The item-range check is the
// pool path's (d >= 3); the 2D path answers from its sampler with an mc:
// error instead.
func TestDoErrorText(t *testing.T) {
	ds := stablerank.Independent(rand.New(rand.NewSource(29)), 5, 3)
	a, err := stablerank.New(ds, stablerank.WithSampleCount(500), stablerank.WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    stablerank.Query
		want string
	}{
		{nil, "plan: query 0 is nil"},
		{stablerank.ItemRankQuery{Item: 7}, "plan: item 7 out of range [0, 5)"},
	} {
		res, err := a.Do(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err == nil || res[0].Err.Error() != tc.want {
			t.Errorf("Do(%#v) error = %v, want %q", tc.q, res[0].Err, tc.want)
		}
	}
}

// TestStreamEnumerate drives the streaming iterator over Figure 1 and checks
// order, mass and early termination.
func TestStreamEnumerate(t *testing.T) {
	a, err := stablerank.New(stablerank.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	count, mass, prev := 0, 0.0, 2.0
	for res, err := range a.Stream(ctx, stablerank.EnumerateQuery{}) {
		if err != nil {
			t.Fatal(err)
		}
		if res.Stable == nil {
			t.Fatal("stream result missing Stable")
		}
		if res.Stable.Stability > prev+1e-12 {
			t.Error("stream violated decreasing stability")
		}
		prev = res.Stable.Stability
		mass += res.Stable.Stability
		count++
	}
	if count != 11 || math.Abs(mass-1) > 1e-9 {
		t.Errorf("streamed %d rankings with mass %v, want 11 summing to 1", count, mass)
	}
	// TopHQuery stops at H; breaking out early also stops cleanly.
	n := 0
	for _, err := range a.Stream(ctx, stablerank.TopHQuery{H: 4}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Errorf("streamed toph(4) yielded %d", n)
	}
	n = 0
	for _, err := range a.Stream(ctx, stablerank.AboveQuery{Threshold: 0.10}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 || n >= 11 {
		t.Errorf("streamed above(0.10) yielded %d of 11", n)
	}
	// A non-enumeration query streams its single batch result.
	got := 0
	for res, err := range a.Stream(ctx, stablerank.VerifyQuery{Ranking: stablerank.RankingOf(a.Dataset(), []float64{1, 1})}) {
		if err != nil {
			t.Fatal(err)
		}
		if res.Verification == nil {
			t.Error("streamed verify missing Verification")
		}
		got++
	}
	if got != 1 {
		t.Errorf("streamed verify yielded %d results", got)
	}
}

// TestStreamCancellation pins the satellite requirement: cancelling the
// context mid-stream stops the enumeration promptly and leaks no goroutines.
func TestStreamCancellation(t *testing.T) {
	ds := stablerank.Diamonds(rand.New(rand.NewSource(7)), 120)
	projected, err := ds.Project(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := stablerank.New(projected, stablerank.WithSampleCount(30000), stablerank.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	streamCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var last error
		n := 0
		for _, err := range a.Stream(streamCtx, stablerank.EnumerateQuery{}) {
			last = err
			n++
			if err != nil {
				break
			}
		}
		if n == 0 {
			last = errors.New("stream yielded nothing before cancellation")
		}
		done <- last
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled stream ended with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled stream did not stop within 10s")
	}
	// The stream runs synchronously in its consumer, so after it returns the
	// goroutine census must settle back to the baseline (pool-build workers
	// have exited; nothing polls in the background).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across a cancelled stream: %d -> %d", before, after)
	}
}

// TestDo2DExact checks the planner keeps the exact 2D verification path:
// no pool, no sweep, exact results.
func TestDo2DExact(t *testing.T) {
	a, err := stablerank.New(stablerank.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	published := stablerank.RankingOf(a.Dataset(), []float64{1, 1})
	results, err := a.Do(ctx,
		stablerank.VerifyQuery{Ranking: published},
		stablerank.ItemRankQuery{Item: 0, Samples: 2000},
	)
	if err != nil {
		t.Fatal(err)
	}
	v := results[0].Verification
	if v == nil || !v.Exact || math.Abs(v.Stability-0.0880) > 5e-4 {
		t.Errorf("2D verify = %+v, want exact ~0.0880", v)
	}
	if results[1].Err != nil || results[1].RankDistribution.Samples != 2000 {
		t.Errorf("2D itemrank = %+v (err %v)", results[1].RankDistribution, results[1].Err)
	}
	if a.PoolBuilds() != 0 || a.Sweeps() != 0 {
		t.Errorf("2D Do built pools (%d) or swept (%d); the exact path needs neither",
			a.PoolBuilds(), a.Sweeps())
	}
}
