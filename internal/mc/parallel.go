package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"stablerank/internal/geom"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// Parallel pool passes, an engineering extension beyond the paper: the
// Monte-Carlo operators of Algorithms 7 and 12 are sums over a pool of
// sampled weight vectors, so the pool's draw and every later pass over it
// (the fused verify and item-rank sweep, exact or adaptive, and the drift
// passes) cut the pool into fixed chunks that Shard spreads over the cores.
//
// Determinism contract: the pool draw is sharded into fixed-size chunks of
// PoolChunk samples, every chunk owns an independent RNG stream derived from
// the base seed and the CHUNK index (never the worker index), and chunk
// boundaries depend only on the total sample count. Workers merely pick up
// chunks; which worker draws a chunk cannot influence its contents. The
// result is therefore bit-identical for any worker count, including 1.

// PoolChunk is the fixed shard size of the deterministic parallel sweeps.
// Small enough that a cancelled context is honored promptly and the chunk
// queue load-balances uneven sampler costs, large enough that per-chunk
// sampler construction is amortized away.
const PoolChunk = 4096

// ChunkSeed derives the RNG seed of shard `chunk` from the base seed with a
// splitmix64 step, so per-chunk streams are decorrelated from each other and
// from the low-offset seeds (base+1, base+2, ...) that callers hand to
// sequential samplers.
func ChunkSeed(base int64, chunk int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(chunk+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SamplerFactory builds one independent sampler per chunk. Implementations
// must give distinct chunks statistically independent streams; the helper
// ConeSamplers does this for the standard regions.
type SamplerFactory func(chunk int) (sampling.Sampler, error)

// ConeSamplers returns a SamplerFactory drawing from the region of interest
// with per-chunk seeds ChunkSeed(baseSeed, chunk).
func ConeSamplers(region geom.Region, baseSeed int64) SamplerFactory {
	return func(chunk int) (sampling.Sampler, error) {
		return sampling.ForRegion(region, rand.New(rand.NewSource(ChunkSeed(baseSeed, chunk))))
	}
}

// Workers returns how many goroutines Shard runs for n tasks when asked for
// workers: GOMAXPROCS when workers <= 0, never more than n. A caller that
// keeps per-worker result slots sizes them with it.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Shard is the one worker loop of every CPU-parallel pool pass. It runs
// tasks 0..n-1, claimed in ascending order by Workers(workers, n) workers:
// the calling goroutine and one new goroutine per further worker. Worker w
// calls newWorker(w) once for its own scratch and then the returned body
// once per task it claims, so no task runs twice. ctx is polled before
// every task, and the first error (a body's or the context's) stops every
// worker before its next task. Shard returns that error only after all
// workers have exited; with one worker or one task it starts no goroutine.
//
// Determinism is the caller's half of the contract: a body writes its
// result into a per-task slot, or into a per-worker slot whose reduction
// cannot depend on which worker ran which task (integer sums), and the
// caller reduces the slots in a fixed order after Shard returns. Then the
// answer is the same for every worker count.
func Shard(ctx context.Context, n, workers int, newWorker func(w int) func(task int) error) error {
	if n <= 0 {
		return nil
	}
	if workers = Workers(workers, n); workers == 1 {
		s := shard{n: n, newWorker: newWorker}
		s.work(ctx, 0)
		return s.err
	}
	s := &shard{n: n, newWorker: newWorker}
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			s.work(ctx, w)
		}()
	}
	s.work(ctx, 0)
	s.wg.Wait()
	return s.err
}

// shard is the state one Shard call shares among its workers.
type shard struct {
	n         int
	newWorker func(w int) func(task int) error
	next      atomic.Int64 // the next unclaimed task
	stop      atomic.Bool  // set by the first error
	err       error        // the first error; written once, by the worker that set stop
	wg        sync.WaitGroup
}

// work runs worker w until the tasks run out or a task fails.
func (s *shard) work(ctx context.Context, w int) {
	body := s.newWorker(w)
	for !s.stop.Load() {
		t := int(s.next.Add(1)) - 1
		if t >= s.n {
			return
		}
		err := ctx.Err()
		if err == nil {
			err = body(t)
		}
		if err != nil {
			if s.stop.CompareAndSwap(false, true) {
				s.err = err
			}
			return
		}
	}
}

// BuildPoolMatrix draws `total` d-dimensional samples through the factory
// directly into one contiguous row-major matrix, sharded into PoolChunk
// chunks spread across `workers` goroutines (workers <= 0 uses GOMAXPROCS).
// Each worker writes its chunk's rows in place (no per-sample allocation,
// via sampling.IntoSampler when the factory's samplers support it), and the
// per-chunk splitmix64 seeding is untouched, so the pool is bit-identical
// for every worker count; see the determinism contract above. Cancelling
// ctx aborts every worker promptly and returns the context's error.
func BuildPoolMatrix(ctx context.Context, factory SamplerFactory, total, d, workers int) (vecmat.Matrix, error) {
	if factory == nil {
		return vecmat.Matrix{}, errors.New("mc: nil sampler factory")
	}
	if total < 0 {
		return vecmat.Matrix{}, fmt.Errorf("mc: negative total %d", total)
	}
	if d < 1 {
		return vecmat.Matrix{}, fmt.Errorf("mc: dimension %d < 1", d)
	}
	pool := vecmat.New(total, d)
	fill := func(chunk int) error {
		lo, hi := ChunkRange(chunk, total)
		return fillChunkRows(ctx, factory, chunk, lo, hi, pool, lo)
	}
	err := Shard(ctx, Chunks(total), workers, func(int) func(int) error { return fill })
	if err != nil {
		return vecmat.Matrix{}, err
	}
	return pool, nil
}
