package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stablerank/internal/geom"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// TestShard pins the worker loop's contract over a table of task and worker
// counts: every task runs exactly once, on a worker index below the worker
// count, and workers <= 0 means GOMAXPROCS.
func TestShard(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		for _, workers := range []int{0, 1, 2, 8} {
			limit := workers
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			if limit = min(limit, n); Workers(workers, n) != limit {
				t.Fatalf("Workers(%d, %d) = %d, want %d", workers, n, Workers(workers, n), limit)
			}
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			err := Shard(ctx, n, workers, func(w int) func(int) error {
				if w < 0 || w >= limit {
					badWorker.Store(int32(w) + 1)
				}
				return func(task int) error {
					runs[task].Add(1)
					return nil
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if w := badWorker.Load(); w != 0 {
				t.Fatalf("n=%d workers=%d: worker index %d, want below %d", n, workers, w-1, limit)
			}
			for task := range runs {
				if c := runs[task].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: task %d ran %d times", n, workers, task, c)
				}
			}
		}
	}
}

// TestShardStopsOnError: a body's error is returned, every other worker
// starts at most one more task after it, and Shard returns only after every
// body has finished.
func TestShardStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		var failed atomic.Bool
		var active, tooMany atomic.Int32
		err := Shard(ctx, 1000, workers, func(int) func(int) error {
			after := 0 // tasks this worker started once the failure was visible
			return func(task int) error {
				active.Add(1)
				defer active.Add(-1)
				if task == 10 {
					failed.Store(true)
					return boom
				}
				if failed.Load() {
					if after++; after > 1 {
						tooMany.Store(1)
					}
					// Give the failing worker time to publish the stop.
					time.Sleep(2 * time.Millisecond)
				}
				return nil
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if tooMany.Load() != 0 {
			t.Fatalf("workers=%d: a worker kept claiming tasks after the error", workers)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("workers=%d: Shard returned with %d bodies still running", workers, a)
		}
	}
}

// pollCancel is a context cancelled by its k-th Err poll; polls goes
// negative by one for every poll after that. Polls are serialized, so no
// poll slips between the k-th one and the cancellation taking effect.
type pollCancel struct {
	context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	polls  int64
}

func (c *pollCancel) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls--; c.polls == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestShardCancel: a context cancelled on its k-th poll makes Shard return
// context.Canceled after at most one more poll and one more task per worker,
// and leaves no goroutine behind.
func TestShardCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		for _, k := range []int64{1, 5, 100} {
			cctx, cancel := context.WithCancel(context.Background())
			pc := &pollCancel{Context: cctx, cancel: cancel, polls: k}
			var late atomic.Int32 // tasks started after the cancelling poll
			err := Shard(pc, 1000, workers, func(int) func(int) error {
				return func(int) error {
					if cctx.Err() != nil {
						late.Add(1)
					}
					return nil
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d: err = %v, want context.Canceled", workers, k, err)
			}
			if extra := -pc.polls; extra > int64(workers-1) {
				t.Fatalf("workers=%d k=%d: %d polls after cancellation", workers, k, extra)
			}
			if l := late.Load(); l > int32(workers-1) {
				t.Fatalf("workers=%d k=%d: %d tasks started after cancellation", workers, k, l)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the cancelled runs, baseline %d", n, baseline)
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
