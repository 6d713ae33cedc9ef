package stablerank

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/sampling"
	"stablerank/internal/stats"
	"stablerank/internal/store"
	"stablerank/internal/vecmat"
)

// poolCell owns the sample pool of one analyzer lineage: New creates it and
// ApplyDelta shares it, built or not, because the pool's rows are
// weight-space points fixed by region, seed and sample count, never by the
// data. It is the one place concurrent first uses coalesce into a single
// build, and it holds the counters of the work done on its pool, so every
// analyzer of a lineage reports the same values.
type poolCell struct {
	// The embedded pointer is the current build attempt. A successful
	// attempt is published once and is immutable afterwards; a failed one
	// is swapped for a fresh attempt, so a build aborted by context
	// cancellation can be retried.
	atomic.Pointer[poolState]

	// builds counts entries into drawPool, so callers sharing the cell can
	// observe that concurrent first uses coalesced into a single pool
	// construction; buildNanos is the wall time of the last successful one.
	builds     atomic.Int64
	buildNanos atomic.Int64
	// restores counts pools installed from a snapshot cache instead of
	// drawn: a warm restart answers its first query with builds == 0 and
	// restores == 1.
	restores atomic.Int64
	// sweeps counts fused sample-pool sweeps (see Sweeps).
	sweeps atomic.Int64
	// adaptiveStops counts verify queries that adaptive verification stopped
	// before the pool was exhausted; adaptiveRowsSaved accumulates the pool
	// rows those early stops skipped. Both are 0 without WithAdaptive.
	adaptiveStops     atomic.Int64
	adaptiveRowsSaved atomic.Int64
}

// newPoolCell returns a cell with one fresh build attempt.
func newPoolCell() *poolCell {
	c := &poolCell{}
	c.Store(&poolState{})
	return c
}

// poolState is one attempt at building the shared sample pool. The pool is
// one contiguous row-major matrix (stride = the dataset dimension), the
// storage every flat verification and enumeration kernel sweeps directly.
// Once built, the attempt also owns the pool's kd-tree range-counting index,
// built lazily by the build rule (see indexAfterPasses). Everything in a
// built attempt is immutable or atomic.
type poolState struct {
	once    sync.Once
	samples vecmat.Matrix
	err     error
	// key is the interned snapshot-cache key the pool was restored from or
	// saved under ("" without a cache). It is analyzer-resident for the
	// pool's lifetime, so PoolMemoryBytes accounts for it alongside the
	// matrix backing array.
	key string
	// built is set (after once completes) iff the attempt succeeded; it lets
	// PoolBuilt peek without racing a build in flight.
	built atomic.Bool
	// passes counts the qualifying full-pool ranking passes (one per verify
	// ranking a fused sweep could count through an index) swept over this
	// pool. indexBuilds is claimed 0 -> 1 by the one sweep that builds the
	// index; index holds it once finished. The index is never snapshotted.
	passes      atomic.Int64
	indexBuilds atomic.Int32
	index       atomic.Pointer[vecmat.Index]
}

// indexAfterPasses is the build rule T: a pool builds its kd-tree index on
// the fused sweep that brings its qualifying ranking passes (this sweep's
// included) to T, so a pool swept once or twice — warm-up, a region
// restored for one request — never pays for a build. T is the ski-rental
// break-even point, build time over the saving per pass, measured on a
// 2-core VM with one goroutine: a 100k-row d = 4 pool builds in about 40 ms
// and a verify-shaped ranking (FIFA, 300 items, cosines 0.998-0.99) costs
// about 3 ms scanned and 0.15 ms through the index, which breaks even at
// about 14 passes; a 20k-row pool builds in about 6 ms and a regions-shaped
// ranking (150 items) saves 0.38 ms, breaking even at 16.
const indexAfterPasses = 16

// poolIndex is the fused sweep's index rule: it records this sweep's
// qualifying passes against the built pool and returns the pool's index,
// building it first when these passes bring the count to T. The build is
// synchronous, bounded CPU with no I/O, and claimed by CAS, so at most one
// runs per pool; sweeps arriving meanwhile get nil and scan.
func (a *Analyzer) poolIndex(qualifying int) *vecmat.Index {
	st := a.pool.Load()
	if !st.built.Load() {
		return nil
	}
	if ix := st.index.Load(); ix != nil {
		return ix
	}
	if st.passes.Add(int64(qualifying)) < indexAfterPasses || !st.indexBuilds.CompareAndSwap(0, 1) {
		return nil
	}
	ix := vecmat.BuildIndex(st.samples)
	st.index.Store(ix)
	return ix
}

// sampler returns a fresh unbiased sampler for the region of interest.
func (a *Analyzer) sampler(seedOffset int64) (sampling.Sampler, error) {
	return sampling.ForRegion(a.roi, rand.New(rand.NewSource(a.seed+seedOffset)))
}

// samplePool lazily draws the shared Monte-Carlo sample pool. Concurrent
// callers on every analyzer sharing the pool cell block on the same build;
// the winning build is published once and the slice is immutable
// afterwards. The build runs under the winning caller's context, so a
// cancelled winner fails the attempt for everyone blocked on it; the failed
// attempt is then replaced and callers whose own context is still live
// retry with it instead of inheriting someone else's cancellation.
func (a *Analyzer) samplePool(ctx context.Context) (vecmat.Matrix, error) {
	for {
		st := a.pool.Load()
		st.once.Do(func() {
			st.samples, st.err = a.obtainPool(ctx) //srlint:onceerr not latched: the retry loop below swaps out a failed attempt, and callers with live contexts rebuild
			if st.err == nil && a.poolCache != nil {
				st.key = a.poolCache.Key()
			}
			st.built.Store(st.err == nil)
		})
		if st.err == nil {
			return st.samples, nil
		}
		a.pool.CompareAndSwap(st, &poolState{})
		if ctxErr := ctx.Err(); ctxErr != nil {
			return vecmat.Matrix{}, ctxErr
		}
		if !errors.Is(st.err, context.Canceled) && !errors.Is(st.err, context.DeadlineExceeded) {
			// A deterministic failure (bad sampler, degenerate region) would
			// recur; surface it instead of spinning.
			return vecmat.Matrix{}, st.err
		}
	}
}

// obtainPool produces the sample pool: restored from the snapshot cache
// when an intact, shape-matching snapshot exists (a restore does NOT count
// as a pool build — that distinction is the warm-restart contract), drawn
// fresh otherwise and offered back to the cache. A snapshot that fails to
// decode, or whose shape disagrees with the configured sample count or
// dataset dimension, is treated as a miss: the cache layer has already
// quarantined damaged bytes, and rebuilding is always safe because the draw
// is deterministic in (region, seed, n).
func (a *Analyzer) obtainPool(ctx context.Context) (vecmat.Matrix, error) {
	if a.poolCache != nil {
		if raw, ok := a.poolCache.Load(); ok {
			if m, err := store.DecodeSnapshot(raw); err == nil &&
				m.Rows() == a.sampleCount && m.Stride() == a.ds.D() {
				a.pool.restores.Add(1)
				return m, nil
			}
		}
	}
	pool, err := a.drawPool(ctx)
	if err == nil && a.poolCache != nil {
		a.poolCache.Save(store.EncodeSnapshot(pool))
	}
	return pool, err
}

// drawPool draws the configured number of samples from the region of
// interest straight into one contiguous matrix, sharded across the
// configured workers. Each fixed-size chunk owns an RNG stream seeded from
// (seed, chunk index), so the pool is bit-identical for every worker count;
// cancellation is plumbed through every worker.
func (a *Analyzer) drawPool(ctx context.Context) (vecmat.Matrix, error) {
	a.pool.builds.Add(1)
	start := time.Now()
	pool, err := a.buildPool(ctx)
	if err != nil {
		return vecmat.Matrix{}, err
	}
	a.pool.buildNanos.Store(time.Since(start).Nanoseconds())
	return pool, nil
}

// buildPool runs the configured PoolFiller when one is attached, otherwise
// (or when the filler fails or returns the wrong shape) the local draw. The
// fallback is silent by design: the filler's result and the local draw are
// bit-identical under the determinism contract, so degrading costs latency,
// never correctness. Context cancellation is the one filler error that
// propagates — retrying locally after the caller gave up helps nobody.
func (a *Analyzer) buildPool(ctx context.Context) (vecmat.Matrix, error) {
	if a.poolFiller != nil {
		data, err := a.poolFiller.FillPool(ctx, a.sampleCount, a.ds.D())
		if err == nil && len(data) == a.sampleCount*a.ds.D() {
			return vecmat.FromData(a.ds.D(), data)
		}
		if ctx.Err() != nil {
			return vecmat.Matrix{}, ctx.Err()
		}
	}
	return mc.BuildPoolMatrix(ctx, mc.ConeSamplers(a.roi, a.seed), a.sampleCount, a.ds.D(), a.workers)
}

// is2D reports whether the exact 2D machinery applies.
func (a *Analyzer) is2D() bool { return a.ds.D() == 2 }

func (a *Analyzer) interval() (geom.Interval2D, error) {
	return geom.Interval2DOf(a.roi)
}

func confidenceOf(s float64, n int, alpha float64) float64 {
	if n <= 0 {
		return 1
	}
	return stats.ConfidenceError(s, n, alpha)
}
