// Benchmarks for the incremental delta path. The headline claim: applying a
// delta to a warmed analyzer costs one vecmat row-pass over the existing pool
// plus an O(log n) ranking splice, where a rebuild re-draws the entire
// Monte-Carlo pool — at n=1k items over a 400k-sample pool that is orders of
// magnitude apart, and TestDeltaApplySpeedup pins the gap at >= 10x.
package stablerank_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stablerank"
)

const (
	deltaBenchItems = 1000
	deltaBenchPool  = 400_000
)

func deltaBenchOpts() []stablerank.Option {
	return []stablerank.Option{
		stablerank.WithSeed(benchSeed),
		stablerank.WithSampleCount(deltaBenchPool),
	}
}

// deltaBenchUpdate is the i-th benchmark delta: a deterministic attribute
// update of a rotating item (updates only, so the ID set stays stable).
func deltaBenchUpdate(ds *stablerank.Dataset, i int) stablerank.Delta {
	return stablerank.Delta{
		Op: stablerank.AttrUpdate,
		ID: ds.Item(i % ds.N()).ID,
		Attrs: stablerank.NewVector(
			1+float64(i%7),
			2+float64(i%5),
			3+float64(i%3),
		),
	}
}

// BenchmarkDeltaApply: one delta against a warmed 400k-sample analyzer —
// the incremental path (score row-pass + ranking splice, pool untouched).
func BenchmarkDeltaApply(b *testing.B) {
	ctx := context.Background()
	ds := benchDiamonds(deltaBenchItems, 3)
	a, err := stablerank.New(ds, deltaBenchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a, err = a.ApplyDelta(ctx, deltaBenchUpdate(ds, i)); err != nil {
			b.Fatal(err)
		}
	}
	if a.PoolBuilds() != 1 {
		b.Fatalf("delta chain built the pool %d times, want 1", a.PoolBuilds())
	}
}

// BenchmarkDeltaRebuild: the same logical operation as BenchmarkDeltaApply
// done the pre-delta way — a from-scratch analyzer (full 400k-sample pool
// draw) per mutation. The DeltaApply/DeltaRebuild ratio is the feature.
func BenchmarkDeltaRebuild(b *testing.B) {
	ctx := context.Background()
	ds := benchDiamonds(deltaBenchItems, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nds, err := stablerank.ApplyDeltas(ds, deltaBenchUpdate(ds, i))
		if err != nil {
			b.Fatal(err)
		}
		a, err := stablerank.New(nds, deltaBenchOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Warm(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriftStream: delta application plus the drift measurement the
// server's NDJSON feed publishes per PATCH (score pass over the 400k-sample
// pool + 2048-row rank pass, both sharded over GOMAXPROCS workers) — the
// library cost of a PATCH with drift subscribers attached, which the PATCH
// response waits for.
func BenchmarkDriftStream(b *testing.B) {
	ctx := context.Background()
	ds := benchDiamonds(deltaBenchItems, 3)
	a, err := stablerank.New(ds, deltaBenchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a, err = a.ApplyDelta(ctx, deltaBenchUpdate(ds, i)); err != nil {
			b.Fatal(err)
		}
		drifts, err := a.LastDrift(ctx, 2048)
		if err != nil {
			b.Fatal(err)
		}
		if len(drifts) != 1 {
			b.Fatalf("got %d drifts, want 1", len(drifts))
		}
	}
}

// BenchmarkLastDrift times drift pricing alone at the shape of srbench's
// churn workload: n=1000 items, d=4, a 4096-sample pool, 2048 rank rows,
// update-only batches of 1 and 4 deltas. ApplyDelta runs outside the timer;
// every iteration prices a fresh batch, so the once-per-batch score pass is
// inside it. Compare -cpu 1 with -cpu 2 to separate the single-core cost of
// the rank pass from its sharding.
func BenchmarkLastDrift(b *testing.B) {
	ctx := context.Background()
	ds := stablerank.Independent(rand.New(rand.NewSource(benchSeed)), 1000, 4)
	a, err := stablerank.New(ds, stablerank.WithSeed(benchSeed), stablerank.WithSampleCount(4096))
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("deltas=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchSeed))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				deltas := make([]stablerank.Delta, k)
				for j := range deltas {
					deltas[j] = stablerank.Delta{
						Op:    stablerank.AttrUpdate,
						ID:    ds.Item((i*k + j) % ds.N()).ID,
						Attrs: stablerank.NewVector(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
					}
				}
				na, err := a.ApplyDelta(ctx, deltas...)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				drifts, err := na.LastDrift(ctx, 2048)
				if err != nil {
					b.Fatal(err)
				}
				if len(drifts) != k {
					b.Fatalf("got %d drifts, want %d", len(drifts), k)
				}
			}
		})
	}
}

// TestDeltaApplySpeedup pins the perf contract in a pass/fail form the
// benchmark stream cannot: at n=1k items and a 400k-sample pool, the
// incremental path must beat a full rebuild by at least 10x. The expected
// gap is orders of magnitude, so the 10x floor has headroom against noisy
// CI machines.
func TestDeltaApplySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	ctx := context.Background()
	ds := benchDiamonds(deltaBenchItems, 3)

	rebuildStart := time.Now()
	fresh, err := stablerank.New(ds, deltaBenchOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	rebuild := time.Since(rebuildStart)

	a := fresh
	const rounds = 5
	applyStart := time.Now()
	for i := 0; i < rounds; i++ {
		if a, err = a.ApplyDelta(ctx, deltaBenchUpdate(ds, i)); err != nil {
			t.Fatal(err)
		}
	}
	apply := time.Since(applyStart) / rounds
	if apply <= 0 {
		apply = time.Nanosecond
	}
	ratio := float64(rebuild) / float64(apply)
	t.Logf("rebuild %v, delta apply %v (mean of %d), speedup %.0fx", rebuild, apply, rounds, ratio)
	if ratio < 10 {
		t.Fatalf("delta apply speedup %.1fx < 10x (rebuild %v, apply %v)", ratio, rebuild, apply)
	}
	// And the cheap path must not have cut corners: the derived analyzer's
	// dataset and equal-weights ranking match the deltas applied from
	// scratch.
	want := ds
	for i := 0; i < rounds; i++ {
		if want, err = stablerank.ApplyDeltas(want, deltaBenchUpdate(ds, i)); err != nil {
			t.Fatal(err)
		}
	}
	w := benchEqual(ds.D())
	if a.Dataset().Hash() != want.Hash() || !stablerank.RankingOf(a.Dataset(), w).Equal(stablerank.RankingOf(want, w)) {
		t.Fatal("derived analyzer differs from the deltas applied from scratch")
	}
}
