package stablerank

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/rank"
	"stablerank/internal/store"
)

// fakeFiller implements PoolFiller with a scripted behaviour so the tests
// can observe exactly how the analyzer consumes the hook.
type fakeFiller struct {
	calls atomic.Int64
	fill  func(ctx context.Context, total, d int) ([]float64, error)
}

func (f *fakeFiller) FillPool(ctx context.Context, total, d int) ([]float64, error) {
	f.calls.Add(1)
	return f.fill(ctx, total, d)
}

// fillerDataset is 3-dimensional on purpose: verification then runs the
// sampled oracle, which forces the pool build the filler hooks into (the 2D
// path is exact and never draws a pool).
func fillerDataset() *dataset.Dataset {
	ds := dataset.MustNew(3)
	ds.MustAdd("a", 0.9, 0.2, 0.4)
	ds.MustAdd("b", 0.3, 0.8, 0.5)
	ds.MustAdd("c", 0.5, 0.5, 0.9)
	ds.MustAdd("d", 0.7, 0.6, 0.1)
	return ds
}

func fillerRanking(ds *dataset.Dataset) rank.Ranking {
	return rank.Compute(ds, geom.Vector{1, 1, 1})
}

func verifyOnce(t *testing.T, a *Analyzer) Verification {
	t.Helper()
	v, err := verify(ctx, a, fillerRanking(a.Dataset()))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func assertSameVerification(t *testing.T, got, want Verification) {
	t.Helper()
	if got.Stability != want.Stability || got.ConfidenceError != want.ConfidenceError || got.Exact != want.Exact {
		t.Fatalf("verification (%v, %v, %v) != reference (%v, %v, %v)",
			got.Stability, got.ConfidenceError, got.Exact,
			want.Stability, want.ConfidenceError, want.Exact)
	}
}

func TestPoolFillerUsedForBuild(t *testing.T) {
	ds := fillerDataset()
	honest := &fakeFiller{}
	a, err := New(ds, WithSeed(11), WithSampleCount(2000), WithPoolFiller(honest))
	if err != nil {
		t.Fatal(err)
	}
	honest.fill = func(fctx context.Context, total, d int) ([]float64, error) {
		pool, err := mc.BuildPoolMatrix(fctx, mc.ConeSamplers(a.Region(), a.Seed()), total, d, 0)
		return pool.Data(), err
	}

	plain, err := New(ds, WithSeed(11), WithSampleCount(2000))
	if err != nil {
		t.Fatal(err)
	}
	assertSameVerification(t, verifyOnce(t, a), verifyOnce(t, plain))
	if honest.calls.Load() != 1 {
		t.Fatalf("filler called %d times, want 1", honest.calls.Load())
	}
	if a.PoolBuilds() != 1 {
		t.Fatalf("PoolBuilds = %d, want 1 (a filler build is still a build)", a.PoolBuilds())
	}
}

func TestPoolFillerFallsBackOnErrorAndBadShape(t *testing.T) {
	ds := fillerDataset()
	for name, fill := range map[string]func(context.Context, int, int) ([]float64, error){
		"error":     func(context.Context, int, int) ([]float64, error) { return nil, errors.New("boom") },
		"bad shape": func(context.Context, int, int) ([]float64, error) { return make([]float64, 3*2), nil },
	} {
		t.Run(name, func(t *testing.T) {
			broken := &fakeFiller{fill: fill}
			a, err := New(ds, WithSeed(11), WithSampleCount(2000), WithPoolFiller(broken))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(ds, WithSeed(11), WithSampleCount(2000))
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerification(t, verifyOnce(t, a), verifyOnce(t, plain))
			if broken.calls.Load() != 1 {
				t.Fatalf("filler called %d times, want 1", broken.calls.Load())
			}
		})
	}
}

func TestPoolFillerCancellationPropagates(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	blocked := &fakeFiller{fill: func(fctx context.Context, total, d int) ([]float64, error) {
		cancel() // the caller gives up while the filler is in flight
		<-fctx.Done()
		return nil, fctx.Err()
	}}
	ds := fillerDataset()
	a, err := New(ds, WithSeed(11), WithSampleCount(2000), WithPoolFiller(blocked))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify(cancelled, a, fillerRanking(ds)); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyStability under cancellation = %v, want context.Canceled", err)
	}
	// The aborted build must be retryable: a fresh context succeeds via the
	// local fallback (the filler now fails immediately).
	blocked.fill = func(context.Context, int, int) ([]float64, error) {
		return nil, errors.New("still broken")
	}
	if _, err := verify(ctx, a, fillerRanking(ds)); err != nil {
		t.Fatalf("retry after cancelled filler build: %v", err)
	}
}

func TestPoolFillerCacheStillWins(t *testing.T) {
	ds := fillerDataset()
	ref, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(geom.FullSpace{D: 3}, 11), 2000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	filler := &fakeFiller{fill: func(context.Context, int, int) ([]float64, error) {
		return nil, errors.New("should not be called on a cache hit")
	}}
	a, err := New(ds, WithSeed(11), WithSampleCount(2000),
		WithPoolCache(staticCache{snap: store.EncodeSnapshot(ref)}), WithPoolFiller(filler))
	if err != nil {
		t.Fatal(err)
	}
	verifyOnce(t, a)
	if filler.calls.Load() != 0 {
		t.Fatalf("filler called %d times despite a warm cache", filler.calls.Load())
	}
	if a.PoolRestores() != 1 || a.PoolBuilds() != 0 {
		t.Fatalf("restores = %d, builds = %d; want a pure restore", a.PoolRestores(), a.PoolBuilds())
	}
}

type staticCache struct{ snap []byte }

func (c staticCache) Key() string          { return "static-test-key" }
func (c staticCache) Load() ([]byte, bool) { return c.snap, c.snap != nil }
func (c staticCache) Save(snapshot []byte) {}
