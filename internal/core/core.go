// Package core is the public face of the library: it ties the exact 2D
// algorithms, the multi-dimensional delayed-arrangement engine, and the
// randomized Monte-Carlo operators behind one Analyzer with the three
// problem interfaces of Section 2.2 — stability verification for consumers
// (Problem 1) and batch / iterative stable-ranking enumeration for producers
// (Problems 2 and 3) — over an acceptable region of scoring functions
// (Section 2.2.2).
//
// Typical use:
//
//	a, _ := core.New(ds, core.WithCosineSimilarity([]float64{1, 1}, 0.998))
//	res, _ := a.Do(ctx, core.VerifyQuery{Ranking: core.RankingOf(ds, []float64{1, 1})})
//	e, _ := a.Enumerator(ctx)
//	first, _ := e.Next(ctx) // the most stable ranking in the region
//
// This package is wrapped by the root stablerank package, which is the
// supported import path; everything here may change between releases.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/plan"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/stats"
	"stablerank/internal/store"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

// Sentinel errors, re-exported so callers depend only on this package.
var (
	// ErrInfeasibleRanking reports that no scoring function in the region of
	// interest induces the given ranking.
	ErrInfeasibleRanking = errors.New("core: ranking is not achievable in the region of interest")
	// ErrExhausted reports that enumeration has produced every ranking.
	ErrExhausted = errors.New("core: no further rankings")
)

// Analyzer answers stability questions about one dataset within one region
// of interest. It is safe for concurrent use by multiple goroutines: the
// configuration is immutable after New, the lazily drawn Monte-Carlo
// sample pool is built exactly once (behind a sync.Once) and never mutated
// afterwards, and the enumeration memo is an immutable prefix replaced by
// compare-and-swap. Enumerator and Randomized values it hands out are
// iteration cursors and are NOT individually goroutine-safe; create one per
// goroutine (creating them concurrently from a shared Analyzer is fine).
type Analyzer struct {
	ds          *dataset.Dataset
	roi         geom.Region
	seed        int64
	sampleCount int
	alpha       float64
	workers     int
	adaptiveErr float64
	poolCache   PoolCache
	poolFiller  PoolFiller

	// pool holds the lazily drawn shared sample pool. The indirection via an
	// atomic pointer to a once-guarded cell (instead of a bare sync.Once on
	// the Analyzer) lets a build aborted by context cancellation be retried:
	// on failure the cell is swapped for a fresh one, while a successful pool
	// is published exactly once and is immutable afterwards.
	pool atomic.Pointer[poolState]

	// poolBuilds counts entries into drawPool, so callers sharing an
	// Analyzer can observe that concurrent first uses coalesced into a
	// single pool construction.
	poolBuilds atomic.Int64

	// poolBuildNanos records the wall time of the last successful pool build,
	// for operational visibility (/statsz reports it per analyzer).
	poolBuildNanos atomic.Int64

	// poolRestores counts pools installed from a snapshot cache instead of
	// drawn: a warm restart answers its first query with poolBuilds == 0 and
	// poolRestores == 1.
	poolRestores atomic.Int64

	// sweeps counts fused sample-pool sweeps (see Sweeps); together with
	// poolBuilds it makes the sharing behaviour of Do observable.
	sweeps atomic.Int64

	// adaptiveStops counts verify queries that adaptive verification stopped
	// before the pool was exhausted; adaptiveRowsSaved accumulates the pool
	// rows those early stops skipped. Both are 0 without WithAdaptive.
	adaptiveStops     atomic.Int64
	adaptiveRowsSaved atomic.Int64

	// baseline is the incrementally maintained equal-weights ranking state
	// that ApplyDelta splices instead of re-sorting, with baselineAttrs the
	// matching contiguous attrs matrix; both are built lazily under
	// baselineMu. The delta counters and the last delta record feed /statsz
	// and the drift stream (see delta.go).
	baselineMu    sync.Mutex
	baseline      *rank.Spliced // guarded by baselineMu
	baselineAttrs vecmat.Matrix // guarded by baselineMu

	deltasApplied atomic.Int64
	deltaSpliced  atomic.Int64
	deltaResorted atomic.Int64

	last *deltaRecord

	// memo is the longest prefix of the analyzer's GET-NEXT sequence any
	// cursor has produced, nil before the first; see Enumerator. ApplyDelta
	// does not carry it over: rankings depend on the data.
	memo atomic.Pointer[enumMemo]
}

// poolState is one attempt at building the shared sample pool. The pool is
// one contiguous row-major matrix (stride = the dataset dimension), the
// storage every flat verification and enumeration kernel sweeps directly.
// Once built, the cell also owns the pool's kd-tree range-counting index,
// built lazily by the build rule (see indexAfterPasses). Everything in a
// built cell is immutable or atomic, so ApplyDelta shares the cell — pool,
// index and pass count — verbatim between analyzers.
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

// poolIndex is the plan's Env.Index: it records this sweep's qualifying
// passes against the built pool's cell and returns the cell's index,
// building it first when these passes bring the count to T. The build is
// synchronous, bounded CPU with no I/O, and claimed by CAS, so at most one
// runs per cell; sweeps arriving meanwhile get nil and scan.
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

// PoolCache is an external snapshot store for the Monte-Carlo sample pool,
// the warm-restart hook stablerankd plugs its persistent store into. Load
// returns a previously saved snapshot (encoded with the versioned snapshot
// codec) or false on a miss — a cache that serves corrupt or mismatched
// bytes degrades to a miss plus a rebuild, never an error. Save is called at
// most once, after a successful build. Key returns the cache's canonical
// identity for this analyzer's pool (dataset hash, region, seed, sample
// count, layout version); the analyzer interns it for observability.
// Implementations must be safe for concurrent use.
type PoolCache interface {
	Key() string
	Load() ([]byte, bool)
	Save(snapshot []byte)
}

// PoolFiller is an alternative construction strategy for the Monte-Carlo
// sample pool — the hook stablerankd plugs its cluster coordinator into so a
// pool can be assembled from chunks computed on remote fill workers. A
// filler MUST honour the determinism contract: the matrix it returns must be
// bit-identical to the local draw for the analyzer's (region, seed, n) —
// the per-chunk seeding makes that natural, since chunk contents never
// depend on where they were computed. The analyzer treats the filler as
// best-effort: a filler error (other than context cancellation) or a
// wrong-shape result falls back to the local draw, which is always safe for
// the same reason. Implementations must be safe for concurrent use.
type PoolFiller interface {
	FillPool(ctx context.Context, total, d int) (vecmat.Matrix, error)
}

// Option configures an Analyzer.
type Option func(*Analyzer) error

// WithRegion sets the acceptable region U* directly.
func WithRegion(r geom.Region) Option {
	return func(a *Analyzer) error {
		if r == nil {
			return errors.New("core: nil region")
		}
		a.roi = r
		return nil
	}
}

// WithCone restricts scoring functions to a hypercone of half-angle theta
// around the reference weight vector.
func WithCone(weights []float64, theta float64) Option {
	return func(a *Analyzer) error {
		c, err := geom.NewCone(geom.NewVector(weights...), theta)
		if err != nil {
			return err
		}
		a.roi = c
		return nil
	}
}

// WithCosineSimilarity restricts scoring functions to those within the given
// minimum cosine similarity of the reference weight vector, as in the
// paper's "0.998 cosine similarity around the CSMetrics weights".
func WithCosineSimilarity(weights []float64, minCosine float64) Option {
	return func(a *Analyzer) error {
		c, err := geom.NewConeFromCosine(geom.NewVector(weights...), minCosine)
		if err != nil {
			return err
		}
		a.roi = c
		return nil
	}
}

// WithConstraints restricts scoring functions to a convex cone of linear
// weight constraints, e.g. "w2 at most w1".
func WithConstraints(d int, constraints ...geom.Halfspace) Option {
	return func(a *Analyzer) error {
		r, err := geom.NewConstraintRegion(d, constraints...)
		if err != nil {
			return err
		}
		a.roi = r
		return nil
	}
}

// WithSeed fixes the random seed of every sampler the analyzer creates
// (default 1). Identical seeds give identical results.
func WithSeed(seed int64) Option {
	return func(a *Analyzer) error {
		a.seed = seed
		return nil
	}
}

// WithSampleCount sets the Monte-Carlo sample pool used by verification and
// the multi-dimensional enumerator (default 100,000, the paper's Section 6.3
// choice for GET-NEXTmd).
func WithSampleCount(n int) Option {
	return func(a *Analyzer) error {
		if n < 1 {
			return fmt.Errorf("core: sample count %d < 1", n)
		}
		a.sampleCount = n
		return nil
	}
}

// WithWorkers sets how many goroutines shard the Monte-Carlo sample-pool
// build and the batch verification sweeps (default 0 = GOMAXPROCS). The
// worker count is a throughput knob only: per-chunk deterministic seeding
// makes every result bit-identical regardless of it.
func WithWorkers(n int) Option {
	return func(a *Analyzer) error {
		if n < 0 {
			return fmt.Errorf("core: worker count %d < 0", n)
		}
		a.workers = n
		return nil
	}
}

// WithPoolCache attaches a snapshot cache to the analyzer's sample pool. On
// first use the analyzer tries the cache before sampling: a hit whose
// decoded matrix matches the configured shape is installed verbatim —
// PoolBuilds stays 0, PoolRestores becomes 1, and every downstream result is
// bit-identical to a cold build because the snapshot codec round-trips float
// bits exactly. On a miss (or a corrupt/mismatched snapshot) the pool is
// drawn as usual and offered back via Save.
func WithPoolCache(c PoolCache) Option {
	return func(a *Analyzer) error {
		a.poolCache = c
		return nil
	}
}

// WithPoolFiller delegates the analyzer's pool construction to an external
// filler (typically a cluster coordinator farming chunks out to remote
// workers). The snapshot cache, when also configured, still wins: a filler
// only runs on a cache miss, and its output is offered back to the cache
// like any built pool. A nil filler leaves the local draw in place.
func WithPoolFiller(f PoolFiller) Option {
	return func(a *Analyzer) error {
		a.poolFiller = f
		return nil
	}
}

// WithConfidenceLevel sets 1-alpha for reported confidence errors (default
// alpha = 0.05).
func WithConfidenceLevel(alpha float64) Option {
	return func(a *Analyzer) error {
		if alpha <= 0 || alpha >= 1 {
			return fmt.Errorf("core: alpha %v out of (0,1)", alpha)
		}
		a.alpha = alpha
		return nil
	}
}

// WithAdaptive enables adaptive verification at the given target confidence
// error (0 < e < 1): verify queries sweep the Monte-Carlo pool in growing
// chunks and stop as soon as the confidence half-width of the running
// estimate — at the level configured by WithConfidenceLevel — drops to e.
// The pool rows are an iid draw, so any prefix is an unbiased sample; a
// query that never clears the target consumes the whole pool and reports
// exactly the non-adaptive answer. Stopping points depend only on the seed
// and pool size, never on the worker count, so adaptive results stay
// deterministic. Exact 2D verification, item-rank queries and enumeration
// are unaffected. Verification.Adaptive reports per query whether it
// stopped early; AdaptiveStops and AdaptiveRowsSaved aggregate the effect.
func WithAdaptive(targetError float64) Option {
	return func(a *Analyzer) error {
		if targetError <= 0 || targetError >= 1 {
			return fmt.Errorf("core: adaptive target error %v out of (0,1)", targetError)
		}
		a.adaptiveErr = targetError
		return nil
	}
}

// New builds an Analyzer over the dataset. Without options the region of
// interest is the whole function space U.
func New(ds *dataset.Dataset, opts ...Option) (*Analyzer, error) {
	if ds == nil || ds.N() == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	if ds.D() < 2 {
		return nil, fmt.Errorf("core: dataset needs >= 2 scoring attributes, has %d", ds.D())
	}
	a := &Analyzer{
		ds:          ds,
		roi:         geom.FullSpace{D: ds.D()},
		seed:        1,
		sampleCount: 100_000,
		alpha:       0.05,
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.roi.Dim() != ds.D() {
		return nil, fmt.Errorf("core: region dimension %d != dataset dimension %d", a.roi.Dim(), ds.D())
	}
	a.pool.Store(&poolState{})
	return a, nil
}

// Dataset returns the analyzed dataset.
func (a *Analyzer) Dataset() *dataset.Dataset { return a.ds }

// Region returns the region of interest.
func (a *Analyzer) Region() geom.Region { return a.roi }

// Seed returns the configured random seed.
func (a *Analyzer) Seed() int64 { return a.seed }

// SampleCount returns the configured Monte-Carlo sample pool size.
func (a *Analyzer) SampleCount() int { return a.sampleCount }

// Workers returns the effective worker count of the pool build and batch
// sweeps: the configured value, or GOMAXPROCS when unset.
func (a *Analyzer) Workers() int {
	if a.workers > 0 {
		return a.workers
	}
	return runtime.GOMAXPROCS(0)
}

// AdaptiveTargetError returns the adaptive-verification target confidence
// error, or 0 when adaptive verification is disabled.
func (a *Analyzer) AdaptiveTargetError() float64 { return a.adaptiveErr }

// AdaptiveStops returns how many verify queries adaptive verification has
// stopped before exhausting the sample pool.
func (a *Analyzer) AdaptiveStops() int64 { return a.adaptiveStops.Load() }

// AdaptiveRowsSaved returns the total number of pool rows early-stopped
// verify queries skipped — the work adaptive verification avoided.
func (a *Analyzer) AdaptiveRowsSaved() int64 { return a.adaptiveRowsSaved.Load() }

// PoolBuildDuration returns the wall time of the most recent successful
// sample-pool build, or 0 if none has completed yet.
func (a *Analyzer) PoolBuildDuration() time.Duration {
	return time.Duration(a.poolBuildNanos.Load())
}

// PoolBuilds returns how many times the shared sample pool has been (re)built,
// counting builds that a cancelled context aborted. Concurrent first uses of a
// shared Analyzer coalesce into one build, so after any number of successful
// calls this is 1; it only exceeds 1 when aborted builds were retried.
func (a *Analyzer) PoolBuilds() int64 { return a.poolBuilds.Load() }

// PoolBuilt reports whether the shared sample pool has been successfully
// drawn (it then stays resident for the Analyzer's lifetime).
func (a *Analyzer) PoolBuilt() bool {
	st := a.pool.Load()
	return st != nil && st.built.Load()
}

// RankingOf returns the ranking the weight vector induces on ds, the
// nabla_f(D) operator.
func RankingOf(ds *dataset.Dataset, weights []float64) rank.Ranking {
	return rank.Compute(ds, geom.NewVector(weights...))
}

// sampler returns a fresh unbiased sampler for the region of interest.
func (a *Analyzer) sampler(seedOffset int64) (sampling.Sampler, error) {
	return sampling.ForRegion(a.roi, rand.New(rand.NewSource(a.seed+seedOffset)))
}

// samplePool lazily draws the shared Monte-Carlo sample pool. Concurrent
// callers block on the same build; the winning build is published once and
// the slice is immutable afterwards. The build runs under the winning
// caller's context, so a cancelled winner fails the attempt for everyone
// blocked on it; the failed cell is then replaced and callers whose own
// context is still live retry with it instead of inheriting someone else's
// cancellation.
func (a *Analyzer) samplePool(ctx context.Context) (vecmat.Matrix, error) {
	for {
		st := a.pool.Load()
		st.once.Do(func() {
			st.samples, st.err = a.obtainPool(ctx) //srlint:onceerr not latched: the retry loop below swaps out a failed cell, and callers with live contexts rebuild
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
				a.poolRestores.Add(1)
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
	a.poolBuilds.Add(1)
	start := time.Now()
	pool, err := a.buildPool(ctx)
	if err != nil {
		return vecmat.Matrix{}, err
	}
	a.poolBuildNanos.Store(time.Since(start).Nanoseconds())
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
		pool, err := a.poolFiller.FillPool(ctx, a.sampleCount, a.ds.D())
		if err == nil && pool.Rows() == a.sampleCount && pool.Stride() == a.ds.D() {
			return pool, nil
		}
		if ctx.Err() != nil {
			return vecmat.Matrix{}, ctx.Err()
		}
	}
	return mc.BuildPoolMatrix(ctx, mc.ConeSamplers(a.roi, a.seed), a.sampleCount, a.ds.D(), a.workers)
}

// PoolMemoryBytes returns the resident size of the shared Monte-Carlo
// sample pool — the backing array, the interned snapshot-key string kept
// alongside it and, once built, the pool's kd-tree index — plus the
// enumeration memo (at most the pool's own size, in 2D too), or 0 while
// neither exists. This is the number stablerankd surfaces per analyzer in
// /statsz, so it must cover everything the analyzer pins, not just the
// matrix.
func (a *Analyzer) PoolMemoryBytes() int64 {
	var n int64
	if m := a.memo.Load(); m != nil {
		n = m.bytes
	}
	if st := a.pool.Load(); st != nil && st.built.Load() {
		n += st.samples.Bytes() + int64(len(st.key)) + st.index.Load().Bytes()
	}
	return n
}

// PoolRestores returns how many times the pool was installed from the
// snapshot cache instead of drawn; with a warm cache the first query is
// served with PoolBuilds() == 0 and PoolRestores() == 1.
func (a *Analyzer) PoolRestores() int64 { return a.poolRestores.Load() }

// PoolSnapshotKey returns the interned snapshot-cache key of the built pool,
// or "" while no pool is built or no cache is attached.
func (a *Analyzer) PoolSnapshotKey() string {
	st := a.pool.Load()
	if st == nil || !st.built.Load() {
		return ""
	}
	return st.key
}

// is2D reports whether the exact 2D machinery applies.
func (a *Analyzer) is2D() bool { return a.ds.D() == 2 }

func (a *Analyzer) interval() (geom.Interval2D, error) {
	return geom.Interval2DOf(a.roi)
}

// Verification is the answer to the consumer's stability question
// (Problem 1). A feasible-by-dominance ranking with zero matching samples
// reports stability 0 rather than ErrInfeasibleRanking, as the Monte-Carlo
// evidence cannot distinguish the two.
type Verification = plan.Verification

// Stable is one enumerated ranking with its stability.
type Stable = plan.Stable

// Enumerator yields rankings in decreasing stability (the GET-NEXT operator
// of Problem 3). In 2D it is exact; otherwise it runs the delayed
// arrangement construction over the Monte-Carlo sample pool.
//
// Every cursor first replays the analyzer's memo, the longest prefix of the
// sequence any cursor has produced, and builds its own ray sweep or engine
// (a pool clone plus the exchange hyperplanes) only on the first Next past
// it. The engine then regenerates and discards the replayed rankings —
// GET-NEXT is deterministic for a fixed dataset, region and pool, a resumed
// engine included — continues live, and publishes its longer prefix while
// the memo's bound allows.
type Enumerator struct {
	a    *Analyzer
	pool vecmat.Matrix   // d > 2
	iv   geom.Interval2D // 2D
	// next is the position in the sequence of the ranking Next returns next.
	next int

	// twoD or mdE is the live engine, nil while the cursor replays the memo;
	// made counts the rankings it has produced, and those before next are
	// discarded.
	twoD *twod.Enumerator
	mdE  *md.Engine
	made int
	// kept is the prefix [0, next) while the cursor may still publish it
	// (keeping), with keptBytes its memo size.
	kept      []Stable
	keptBytes int64
	keeping   bool
}

// enumMemo is an immutable prefix of an analyzer's enumeration: the first
// len(stables) rankings of its GET-NEXT sequence, bytes their size by
// stableBytes, and done set when the sequence ends after them. The rankings
// are never handed out, only deep copies of them.
type enumMemo struct {
	stables []Stable
	bytes   int64
	done    bool
}

// memoBound is the most bytes an analyzer's memo holds: the size of its
// sample pool, SampleCount x d float64s, reckoned the same way in 2D where
// no pool is drawn. For 100 items at d = 4 and a 20k pool that is about
// 770 rankings.
func (a *Analyzer) memoBound() int64 { return int64(a.sampleCount) * int64(a.ds.D()) * 8 }

// stableBytes is one ranking's memo size: its order and weights at 8 bytes
// per element.
func stableBytes(s Stable) int64 { return 8 * int64(len(s.Ranking.Order)+len(s.Weights)) }

// publishMemo installs m when it is a strictly longer prefix than the
// current memo, or the same prefix newly marked done. Every prefix is of
// the same sequence, so the longer one contains the shorter.
func (a *Analyzer) publishMemo(m *enumMemo) {
	for {
		old := a.memo.Load()
		if old != nil && (len(m.stables) < len(old.stables) ||
			len(m.stables) == len(old.stables) && (old.done || !m.done)) {
			return
		}
		if a.memo.CompareAndSwap(old, m) {
			return
		}
	}
}

// cloneStable deep-copies the slices of s, so a caller that mutates its
// result changes nobody else's answer.
func cloneStable(s Stable) Stable {
	s.Ranking = s.Ranking.Clone()
	s.Weights = s.Weights.Clone()
	return s
}

// Enumerator prepares the iterative stable-region enumeration. It obtains
// the sample pool (d > 2) or the 2D interval now; the engine waits for the
// first Next past the memo. The returned Enumerator is a single iteration
// cursor and is not safe for concurrent use; calling this method
// concurrently to obtain one cursor per goroutine is safe.
func (a *Analyzer) Enumerator(ctx context.Context) (*Enumerator, error) {
	e := &Enumerator{a: a}
	if a.is2D() {
		iv, err := a.interval()
		if err != nil {
			return nil, err
		}
		e.iv = iv
		return e, nil
	}
	pool, err := a.samplePool(ctx)
	if err != nil {
		return nil, err
	}
	e.pool = pool
	return e, nil
}

// Next returns the next most stable ranking, or ErrExhausted. Every Stable
// it returns is the caller's own deep copy. Cancelling ctx makes Next
// return the context's error promptly; the enumeration state stays
// consistent, so a later call with a live context resumes.
func (e *Enumerator) Next(ctx context.Context) (Stable, error) {
	if err := ctx.Err(); err != nil {
		return Stable{}, err
	}
	if e.twoD == nil && e.mdE == nil {
		m := e.a.memo.Load()
		if m != nil && e.next < len(m.stables) {
			e.next++
			return cloneStable(m.stables[e.next-1]), nil
		}
		if m != nil && m.done {
			return Stable{}, ErrExhausted
		}
		if err := e.start(m); err != nil {
			return Stable{}, err
		}
	}
	for e.made < e.next {
		if _, err := e.step(ctx); err != nil {
			return Stable{}, err
		}
		e.made++
	}
	s, err := e.step(ctx)
	if errors.Is(err, ErrExhausted) && e.keeping {
		e.a.publishMemo(&enumMemo{stables: e.kept, bytes: e.keptBytes, done: true})
		e.kept, e.keeping = nil, false
	}
	if err != nil {
		return Stable{}, err
	}
	e.made++
	e.next++
	if !e.keeping {
		return s, nil
	}
	if b := stableBytes(s); e.keptBytes+b <= e.a.memoBound() {
		e.kept = append(e.kept, s)
		e.keptBytes += b
		e.a.publishMemo(&enumMemo{stables: e.kept, bytes: e.keptBytes})
		return cloneStable(s), nil
	}
	// Past the bound: stream on without keeping rows.
	e.kept, e.keeping = nil, false
	return s, nil
}

// start builds the live engine once the cursor has replayed all of memo m
// (nil when empty), keeping the replayed prefix for later publishing.
func (e *Enumerator) start(m *enumMemo) error {
	a := e.a
	if a.is2D() {
		te, err := twod.NewEnumerator(a.ds, e.iv)
		if err != nil {
			return err
		}
		e.twoD = te
	} else {
		// The engine partitions the pool in place; hand it a deep copy (one
		// contiguous memcpy) so verification calls on the analyzer keep their
		// own row ordering (contents are identical).
		me, err := md.NewEngineMatrix(a.ds, a.roi, e.pool.Clone(), md.SamplePartition)
		if err != nil {
			return err
		}
		e.mdE = me
	}
	e.keeping = true
	if m != nil {
		// The full slice expression makes the first append copy, so two
		// cursors starting from one memo never append into the same array.
		e.kept, e.keptBytes = m.stables[:len(m.stables):len(m.stables)], m.bytes
	}
	return nil
}

// step returns the live engine's next ranking.
func (e *Enumerator) step(ctx context.Context) (Stable, error) {
	if e.twoD != nil {
		if err := ctx.Err(); err != nil {
			return Stable{}, err
		}
		r, err := e.twoD.Next()
		if errors.Is(err, twod.ErrExhausted) {
			return Stable{}, ErrExhausted
		}
		if err != nil {
			return Stable{}, err
		}
		return Stable{Ranking: r.Ranking, Stability: r.Stability, Weights: r.Region.Midpoint(), Exact: true}, nil
	}
	r, err := e.mdE.Next(ctx)
	if errors.Is(err, md.ErrExhausted) {
		return Stable{}, ErrExhausted
	}
	if err != nil {
		return Stable{}, err
	}
	return Stable{
		Ranking:         r.Ranking,
		Stability:       r.Stability,
		Weights:         r.Weights,
		ConfidenceError: confidenceOf(r.Stability, e.pool.Rows(), e.a.alpha),
	}, nil
}

// Randomized wraps the Monte-Carlo GET-NEXTr operator (Section 4.3) for
// complete rankings or top-k partial rankings.
type Randomized struct {
	op *mc.Operator
}

// Randomized builds the randomized operator with the given semantics; k is
// ignored for mc.Complete. Like Enumerator, the returned operator is a
// stateful cursor and is not safe for concurrent use; building one per
// goroutine from a shared Analyzer is safe.
func (a *Analyzer) Randomized(mode mc.Mode, k int) (*Randomized, error) {
	s, err := a.sampler(1)
	if err != nil {
		return nil, err
	}
	op, err := mc.NewOperator(a.ds, s,
		mc.WithMode(mode, k), mc.WithConfidenceLevel(a.alpha))
	if err != nil {
		return nil, err
	}
	return &Randomized{op: op}, nil
}

// NextFixedBudget draws n fresh samples and returns the most frequent
// undiscovered ranking (Algorithm 7).
func (r *Randomized) NextFixedBudget(ctx context.Context, n int) (mc.Result, error) {
	res, err := r.op.NextFixedBudget(ctx, n)
	if errors.Is(err, mc.ErrExhausted) {
		return mc.Result{}, ErrExhausted
	}
	return res, err
}

// NextFixedError samples until the next ranking's stability estimate reaches
// confidence error e (Algorithm 8).
func (r *Randomized) NextFixedError(ctx context.Context, e float64, maxSamples int) (mc.Result, error) {
	res, err := r.op.NextFixedError(ctx, e, maxSamples)
	if errors.Is(err, mc.ErrExhausted) {
		return mc.Result{}, ErrExhausted
	}
	return res, err
}

// TopH returns the h most stable rankings with the paper's budget schedule.
func (r *Randomized) TopH(ctx context.Context, h, firstBudget, stepBudget int) ([]mc.Result, error) {
	return r.op.TopH(ctx, h, firstBudget, stepBudget)
}

// TotalSamples reports the cumulative number of samples drawn.
func (r *Randomized) TotalSamples() int { return r.op.TotalSamples() }

func confidenceOf(s float64, n int, alpha float64) float64 {
	if n <= 0 {
		return 1
	}
	return stats.ConfidenceError(s, n, alpha)
}
