package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/sampling"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

func TestParallelEstimateMatchesExact(t *testing.T) {
	ds := dataset.Figure1()
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	exact, err := twod.EnumerateAll(ds, full)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ParallelEstimate(ctx, ds, ConeSamplers(geom.FullSpace{D: 2}, 201),
		Complete, 0, 80000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 80000 {
		t.Errorf("total = %d", est.Total)
	}
	for _, s := range exact[:4] {
		key := s.Ranking.Key()
		if got := est.Stability(key); math.Abs(got-s.Stability) > 0.01 {
			t.Errorf("key %s: parallel %v vs exact %v", key, got, s.Stability)
		}
	}
	top := est.Top(3)
	if len(top) != 3 || top[0] != exact[0].Ranking.Key() {
		t.Errorf("Top(3) = %v, want leader %s", top, exact[0].Ranking.Key())
	}
}

// TestParallelEstimateWorkerInvariance is the determinism contract: the
// merged counts must be bit-identical for every worker count, because shards
// are seeded by chunk index, never by worker index.
func TestParallelEstimateWorkerInvariance(t *testing.T) {
	ds := dataset.Figure1()
	var base Estimate
	for i, workers := range []int{1, 2, 8} {
		est, err := ParallelEstimate(ctx, ds, ConeSamplers(geom.FullSpace{D: 2}, 7), Complete, 0, 9000, workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = est
			continue
		}
		if len(est.Counts) != len(base.Counts) {
			t.Fatalf("workers=%d: key set differs (%d vs %d keys)", workers, len(est.Counts), len(base.Counts))
		}
		for k, c := range base.Counts {
			if est.Counts[k] != c {
				t.Fatalf("workers=%d key %s: %d vs %d", workers, k, est.Counts[k], c)
			}
		}
	}
}

func TestParallelEstimateTopKModes(t *testing.T) {
	ds := dataset.Toy225()
	est, err := ParallelEstimate(ctx, ds, ConeSamplers(geom.FullSpace{D: 2}, 8), TopKSet, 3, 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Section 2.2.5: the dominant top-3 set is {t2, t3, t4} = indices 1,2,3.
	if top := est.Top(1); len(top) != 1 || top[0] != "1,2,3" {
		t.Errorf("dominant set = %v, want [1,2,3]", top)
	}
}

func TestParallelEstimateValidation(t *testing.T) {
	ds := dataset.Figure1()
	f := ConeSamplers(geom.FullSpace{D: 2}, 1)
	if _, err := ParallelEstimate(ctx, nil, f, Complete, 0, 10, 1); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := ParallelEstimate(ctx, ds, nil, Complete, 0, 10, 1); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := ParallelEstimate(ctx, ds, f, TopKSet, 0, 10, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ParallelEstimate(ctx, ds, f, Mode(9), 0, 10, 1); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := ParallelEstimate(ctx, ds, f, Complete, 0, -1, 1); err == nil {
		t.Error("negative total accepted")
	}
	// Dimension mismatch surfaces from the worker.
	bad := ConeSamplers(geom.FullSpace{D: 3}, 1)
	if _, err := ParallelEstimate(ctx, ds, bad, Complete, 0, 10, 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Zero samples: empty estimate.
	est, err := ParallelEstimate(ctx, ds, f, Complete, 0, 0, 4)
	if err != nil || est.Total != 0 || len(est.Counts) != 0 {
		t.Errorf("zero-total estimate: %+v, %v", est, err)
	}
	if est.Stability("anything") != 0 {
		t.Error("stability of empty estimate should be 0")
	}
	// More workers than samples.
	est, err = ParallelEstimate(ctx, ds, f, Complete, 0, 3, 16)
	if err != nil || est.Total != 3 {
		t.Errorf("workers>total: %+v, %v", est, err)
	}
}

func TestParallelEstimateCancelled(t *testing.T) {
	ds := dataset.Figure1()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParallelEstimate(cancelled, ds, ConeSamplers(geom.FullSpace{D: 2}, 1), Complete, 0, 50000, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestBuildPoolWorkerInvariance: the pool is bit-identical for worker counts
// 1, 2 and 8 — including a total that is not a multiple of the chunk size, so
// the short tail chunk is covered.
func TestBuildPoolWorkerInvariance(t *testing.T) {
	factory := ConeSamplers(geom.FullSpace{D: 3}, 42)
	total := 2*PoolChunk + 777
	var base vecmat.Matrix
	for i, workers := range []int{1, 2, 8} {
		pool, err := BuildPoolMatrix(ctx, factory, total, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		if pool.Rows() != total || pool.Stride() != 3 {
			t.Fatalf("workers=%d: shape %dx%d, want %dx3", workers, pool.Rows(), pool.Stride(), total)
		}
		if i == 0 {
			base = pool
			continue
		}
		assertMatrixEqual(t, fmt.Sprintf("workers=%d", workers), base, pool)
	}
}

// TestBuildPoolMatrixMatchesChunkDraws: each chunk of the matrix pool holds
// exactly the samples its chunk's sampler draws one by one through Sample,
// whatever the worker count — the chunked seeding survives the contiguous
// storage and the in-place SampleInto fast path.
func TestBuildPoolMatrixMatchesChunkDraws(t *testing.T) {
	factory := ConeSamplers(geom.FullSpace{D: 3}, 42)
	total := PoolChunk + 123
	want := vecmat.New(total, 3)
	for chunk := 0; chunk < Chunks(total); chunk++ {
		s, err := factory(chunk)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ChunkRange(chunk, total)
		for i := lo; i < hi; i++ {
			w, err := s.Sample()
			if err != nil {
				t.Fatal(err)
			}
			want.SetRow(i, w)
		}
	}
	for _, workers := range []int{1, 4} {
		m, err := BuildPoolMatrix(ctx, factory, total, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertMatrixEqual(t, fmt.Sprintf("workers=%d", workers), want, m)
	}
	// Dimension mismatch between factory and pool is rejected.
	if _, err := BuildPoolMatrix(ctx, factory, 10, 4, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestBuildPoolAllocationBudget: the chunked matrix build allocates per
// chunk (sampler construction), never per sample.
func TestBuildPoolAllocationBudget(t *testing.T) {
	factory := ConeSamplers(geom.FullSpace{D: 3}, 7)
	total := 2 * PoolChunk
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BuildPoolMatrix(ctx, factory, total, 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	// 2 chunks x a handful of sampler allocations + the pool itself; the
	// historical build allocated >= 2*total.
	if allocs > 64 {
		t.Errorf("BuildPoolMatrix allocates %.0f for %d samples (%.3f/sample), want per-chunk only",
			allocs, total, allocs/float64(total))
	}
}

func TestBuildPoolValidationAndCancel(t *testing.T) {
	factory := ConeSamplers(geom.FullSpace{D: 2}, 1)
	if _, err := BuildPoolMatrix(ctx, nil, 10, 2, 1); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := BuildPoolMatrix(ctx, factory, -1, 2, 1); err == nil {
		t.Error("negative total accepted")
	}
	if _, err := BuildPoolMatrix(ctx, factory, 10, 0, 1); err == nil {
		t.Error("dimension 0 accepted")
	}
	pool, err := BuildPoolMatrix(ctx, factory, 0, 2, 4)
	if err != nil || pool.Rows() != 0 {
		t.Errorf("zero total: rows=%d err=%v", pool.Rows(), err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildPoolMatrix(cancelled, factory, 100000, 2, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// A failing factory surfaces its error.
	boom := errors.New("boom")
	_, err = BuildPoolMatrix(ctx, func(int) (sampling.Sampler, error) { return nil, boom }, 10, 2, 2)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}
