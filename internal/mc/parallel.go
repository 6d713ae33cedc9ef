package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// Parallel estimation, an engineering extension beyond the paper: the
// Monte-Carlo sweeps of Algorithms 7 and 12 are embarrassingly parallel, so
// both the shared sample pool and the distribution of ranking (or top-k)
// frequencies can be gathered on all cores and merged.
//
// Determinism contract: the work is sharded into fixed-size chunks of
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

// sweep runs fn over every chunk of total on the given worker count, stopping
// early on the first error or context cancellation. fn receives the chunk
// index and the [lo, hi) sample range it covers; it is called from multiple
// goroutines but never twice for the same chunk.
func sweep(ctx context.Context, total, workers int, fn func(chunk, lo, hi int) error) error {
	if total <= 0 {
		return nil
	}
	chunks := (total + PoolChunk - 1) / PoolChunk
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		sweepErr error
	)
	stop := make(chan struct{})
	fail := func(err error) {
		errOnce.Do(func() {
			sweepErr = err
			close(stop)
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				lo := c * PoolChunk
				hi := min(lo+PoolChunk, total)
				if err := fn(c, lo, hi); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return sweepErr
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
	err := sweep(ctx, total, workers, func(chunk, lo, hi int) error {
		return fillChunkRows(ctx, factory, chunk, lo, hi, pool, lo)
	})
	if err != nil {
		return vecmat.Matrix{}, err
	}
	return pool, nil
}

// Estimate is the merged outcome of a parallel sweep.
type Estimate struct {
	// Counts maps ranking keys to observation counts.
	Counts map[string]int
	// Total is the number of samples drawn across all workers.
	Total int
}

// Stability returns the estimated stability of key.
func (e Estimate) Stability(key string) float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Counts[key]) / float64(e.Total)
}

// Top returns the h most frequent keys in decreasing count (ties broken by
// key for determinism).
func (e Estimate) Top(h int) []string {
	keys := make([]string, 0, len(e.Counts))
	for k := range e.Counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := e.Counts[keys[i]], e.Counts[keys[j]]
		if ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	if h > 0 && len(keys) > h {
		keys = keys[:h]
	}
	return keys
}

// ParallelEstimate draws `total` samples split into PoolChunk shards across
// `workers` goroutines (workers <= 0 uses GOMAXPROCS) and returns the merged
// ranking-frequency distribution under the given mode/k. Per the determinism
// contract, the outcome is bit-identical for a fixed factory and total
// regardless of the worker count. Cancelling ctx aborts the sweep with the
// context's error.
func ParallelEstimate(ctx context.Context, ds *dataset.Dataset, factory SamplerFactory, mode Mode, k, total, workers int) (Estimate, error) {
	if ds == nil || ds.N() == 0 {
		return Estimate{}, dataset.ErrEmptyDataset
	}
	if factory == nil {
		return Estimate{}, errors.New("mc: nil sampler factory")
	}
	if total < 0 {
		return Estimate{}, fmt.Errorf("mc: negative total %d", total)
	}
	switch mode {
	case Complete:
	case TopKSet, TopKRanked:
		if k < 1 {
			return Estimate{}, fmt.Errorf("mc: top-k mode requires k >= 1, got %d", k)
		}
	default:
		return Estimate{}, fmt.Errorf("mc: unknown mode %d", int(mode))
	}
	if total == 0 {
		return Estimate{Counts: map[string]int{}}, nil
	}

	// One ranking computer and one partial intern table per worker slot
	// would race on chunk pickup, so allocate them per chunk instead: a
	// computer is cheap next to the PoolChunk rankings it then produces, and
	// merging per-chunk tables keeps the final counts independent of
	// scheduling. Within a chunk, rankings are counted under interned
	// 64-bit hashes (collision-checked) with the sample buffer reused, so
	// the per-sample loop allocates only for first-seen rankings; string
	// keys materialize once per distinct ranking during the merge.
	chunks := (total + PoolChunk - 1) / PoolChunk
	parts := make([]*internTable, chunks)
	err := sweep(ctx, total, workers, func(chunk, lo, hi int) error {
		s, err := factory(chunk)
		if err != nil {
			return err
		}
		if s.Dim() != ds.D() {
			return fmt.Errorf("mc: sampler dimension %d != dataset dimension %d", s.Dim(), ds.D())
		}
		into, _ := s.(sampling.IntoSampler)
		comp := rank.NewComputer(ds)
		table := newInternTable()
		wbuf := make(geom.Vector, ds.D())
		var setbuf []int
		for i := lo; i < hi; i++ {
			if into != nil {
				err = into.SampleInto(wbuf)
			} else {
				err = sampling.Into(s, wbuf)
			}
			if err != nil {
				return err
			}
			var sel []int
			switch mode {
			case TopKSet:
				setbuf = append(setbuf[:0], comp.TopKSelect(wbuf, k)...)
				sort.Ints(setbuf)
				sel = setbuf
			case TopKRanked:
				sel = comp.TopKSelect(wbuf, k)
			default:
				sel = comp.Compute(wbuf).Order
			}
			table.observe(sel)
		}
		parts[chunk] = table
		return nil
	})
	if err != nil {
		return Estimate{}, err
	}
	merged := make(map[string]int)
	n := 0
	for _, p := range parts {
		p.forEach(func(e *internEntry) {
			merged[e.key()] += e.count
			n += e.count
		})
	}
	return Estimate{Counts: merged, Total: n}, nil
}
