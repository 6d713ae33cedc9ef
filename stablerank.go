package stablerank

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/md"
	"stablerank/internal/store"
)

// Analyzer errors keep their "core:" prefix: /v1/query renders a result's
// error text verbatim and construction errors reach 400 bodies, so the text
// is wire format.

// Sentinel errors. They compare with errors.Is across every entry point of
// the package.
var (
	// ErrInfeasibleRanking reports that no scoring function in the region of
	// interest induces the given ranking.
	ErrInfeasibleRanking = errors.New("core: ranking is not achievable in the region of interest")
	// ErrExhausted reports that enumeration has produced every ranking.
	ErrExhausted = errors.New("core: no further rankings")
	// ErrEmptyDataset reports an operation on a dataset without items.
	ErrEmptyDataset = dataset.ErrEmptyDataset
)

// Region is an acceptable region of scoring functions (Section 2.2.2 of the
// paper): a subset of the non-negative unit sphere a stakeholder considers
// reasonable weight choices.
type Region = geom.Region

// Interval2D is a two-dimensional region as an angle interval; it describes
// exact 2D verification results.
type Interval2D = geom.Interval2D

// Halfspace is one linear weight constraint, Normal·w >= 0 (Positive) or
// <= 0; use it with WithConstraints and read it back from Verification.
type Halfspace = geom.Halfspace

// Vector is a weight or attribute vector.
type Vector = geom.Vector

// NewVector builds a Vector from its components.
func NewVector(xs ...float64) Vector { return geom.NewVector(xs...) }

// Verification is the answer to the consumer's stability question
// (Problem 1). See Analyzer.VerifyStability.
//
// A ranking feasible by dominance but matched by no pool sample reports
// stability 0 rather than an infeasibility error: the Monte-Carlo evidence
// cannot tell the two apart.
type Verification struct {
	// Stability is the fraction of the region of interest generating the
	// ranking: exact in 2D, a Monte-Carlo estimate otherwise.
	Stability float64
	// ConfidenceError is the half-width of the confidence interval around a
	// Monte-Carlo estimate; 0 when Exact.
	ConfidenceError float64
	// Exact reports whether Stability is exact (2D) or estimated.
	Exact bool
	// Interval describes the ranking region in 2D (nil otherwise).
	Interval *Interval2D
	// Constraints describes the ranking region in higher dimensions as
	// ordering-exchange halfspaces (nil in 2D).
	Constraints []Halfspace
	// SampleCount is the number of Monte-Carlo samples behind an estimate
	// (0 when Exact). Under adaptive verification this is the number of pool
	// rows actually swept, which may be smaller than the pool.
	SampleCount int
	// Adaptive reports that the estimate was stopped early by adaptive
	// verification: the sweep consumed only SampleCount pool rows because the
	// confidence half-width had already reached the configured target. False
	// for exact answers and for adaptive sweeps that exhausted the pool.
	Adaptive bool
}

// Stable is one enumerated ranking with its stability. See
// Analyzer.Enumerator, Analyzer.TopH and Analyzer.AboveThreshold.
type Stable struct {
	// Ranking is the full ranking of the dataset.
	Ranking Ranking
	// Stability is exact in 2D, Monte-Carlo otherwise.
	Stability float64
	// Weights is a representative acceptable scoring function inducing the
	// ranking.
	Weights Vector
	// Exact reports whether Stability is exact.
	Exact bool
	// ConfidenceError is the half-width of the confidence interval around a
	// Monte-Carlo stability estimate; 0 when Exact.
	ConfidenceError float64
}

// BoundaryFacet is one facet of a ranking region: crossing it swaps exactly
// the named item pair. See Analyzer.Boundary.
type BoundaryFacet = md.BoundaryFacet

// Option configures an Analyzer.
type Option func(*Analyzer) error

// WithRegion sets the acceptable region U* directly.
func WithRegion(r Region) Option {
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
func WithConstraints(d int, constraints ...Halfspace) Option {
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

// WithWorkers sets how many goroutines shard the Monte-Carlo sample-pool
// build and the fused verification sweep of Do (default 0 = GOMAXPROCS).
// Determinism is independent of this knob: the pool is drawn in fixed-size
// chunks whose RNG streams are seeded from (seed, chunk index), so worker
// counts 1, 2 and 64 all produce bit-identical pools — and therefore
// identical stability results — for the same seed.
func WithWorkers(n int) Option {
	return func(a *Analyzer) error {
		if n < 0 {
			return fmt.Errorf("core: worker count %d < 0", n)
		}
		a.workers = n
		return nil
	}
}

// WithAdaptive enables adaptive verification at the given target confidence
// error (0 < e < 1): verify queries sweep the Monte-Carlo pool in rounds of
// growing size and stop at the first round's end where the confidence
// half-width of the running estimate — at the WithConfidenceLevel level —
// is at most the target. Any
// pool prefix is itself an unbiased iid sample, so an early-stopped estimate
// carries the usual guarantee at its own (smaller) sample count, reported in
// Verification.SampleCount with Verification.Adaptive set. A query that
// never clears the target consumes the whole pool and reports exactly the
// non-adaptive answer. Stopping points depend only on seed and pool size —
// never on WithWorkers — so adaptive results are deterministic. Exact 2D
// verification, item-rank queries and enumeration are unaffected.
func WithAdaptive(targetError float64) Option {
	return func(a *Analyzer) error {
		if targetError <= 0 || targetError >= 1 {
			return fmt.Errorf("core: adaptive target error %v out of (0,1)", targetError)
		}
		a.adaptiveErr = targetError
		return nil
	}
}

// PoolCache is an external snapshot store for the Monte-Carlo sample pool —
// the hook stablerankd's persistent store plugs in so a restarted server can
// reinstall a previously drawn pool instead of resampling it. Load returns a
// snapshot in the versioned pool codec (or false on a miss); Save is offered
// a snapshot once, after a successful build; Key names the pool's canonical
// identity (dataset hash, region, seed, sample count, PoolLayoutVersion).
// Corrupt or shape-mismatched snapshots degrade to a miss plus a rebuild:
// the draw is deterministic, so rebuilding is always safe.
type PoolCache interface {
	// Implementations must be safe for concurrent use.
	Key() string
	Load() ([]byte, bool)
	Save(snapshot []byte)
}

// PoolLayoutVersion identifies the pool snapshot byte layout. It belongs in
// every PoolCache key: bumping either the matrix codec or the snapshot frame
// changes it, so stale snapshots read as cache misses.
const PoolLayoutVersion = store.SnapshotLayoutVersion

// WithPoolCache attaches a snapshot cache to the analyzer's sample pool. A
// warm hit installs the decoded matrix verbatim — PoolBuilds stays 0,
// PoolRestores becomes 1, and results are bit-identical to a cold build
// because the codec round-trips float bits exactly.
func WithPoolCache(c PoolCache) Option {
	return func(a *Analyzer) error {
		a.poolCache = c
		return nil
	}
}

// PoolFiller is an alternative construction strategy for the sample pool —
// the hook stablerankd's cluster coordinator plugs in so a pool can be
// assembled from chunks computed on remote fill workers. FillPool returns
// the pool as one row-major array of total×d values, which the analyzer
// keeps without copying. It must be bit-identical to the local draw for the
// analyzer's (region, seed, total); per-chunk deterministic seeding makes
// that natural. Filler failures (other than context cancellation) and
// results of the wrong length silently fall back to the local draw —
// degrading costs latency, never correctness.
type PoolFiller interface {
	// Implementations must be safe for concurrent use.
	FillPool(ctx context.Context, total, d int) ([]float64, error)
}

// WithPoolFiller delegates pool construction to an external filler. When a
// PoolCache is also attached the cache still wins: the filler only runs on
// a miss, and its output is offered back to the cache like any built pool.
func WithPoolFiller(f PoolFiller) Option {
	return func(a *Analyzer) error {
		a.poolFiller = f
		return nil
	}
}

// RegionOption translates the textual region parameterization that the CLI
// flags and the HTTP query parameters share — reference weights plus either
// a hypercone half-angle theta or a minimum cosine similarity — into an
// Option. At most one of theta and cosine may be positive, and either
// requires weights. With neither it returns a nil Option, meaning the whole
// function space.
func RegionOption(weights []float64, theta, cosine float64) (Option, error) {
	switch {
	case theta > 0 && cosine > 0:
		return nil, errors.New("stablerank: use only one of theta and cosine")
	case theta > 0:
		if weights == nil {
			return nil, errors.New("stablerank: theta requires weights")
		}
		return WithCone(weights, theta), nil
	case cosine > 0:
		if weights == nil {
			return nil, errors.New("stablerank: cosine requires weights")
		}
		return WithCosineSimilarity(weights, cosine), nil
	default:
		return nil, nil
	}
}

// Analyzer answers stability questions about one dataset within one region
// of interest: stability verification for consumers (Problem 1) and batch /
// iterative stable-ranking enumeration for producers (Problems 2 and 3).
//
// An Analyzer is safe for concurrent use by multiple goroutines; its shared
// Monte-Carlo sample pool is drawn once, on first need, and is immutable
// afterwards. It also keeps the longest prefix of its enumeration any
// request has produced, up to the pool's size, so a repeated top-h, above,
// enumerate or stream request replays rankings instead of recomputing them,
// with the same answers. The Enumerator and Randomized cursors it hands out
// are single-consumer: create one per goroutine.
//
// Every potentially long-running method takes a context.Context and returns
// the context's error promptly after cancellation, leaving the Analyzer
// usable.
type Analyzer struct {
	// The configuration and the dataset are immutable after New;
	// everything mutable below is atomic or published by compare-and-swap,
	// which is what makes the Analyzer safe to share.
	config
	ds *Dataset

	// pool is the lazily drawn shared sample pool with its counters, shared
	// by every Over view derived from this one (see poolCell).
	pool *poolCell

	// deltasApplied and the last delta record are what ApplyDelta adds to
	// its Over view (see delta.go).
	deltasApplied int64
	last          *deltaRecord

	// memo is the longest prefix of the analyzer's GET-NEXT sequence any
	// cursor has produced, nil before the first; see Enumerator. An Over
	// view starts without it: rankings depend on the data.
	memo atomic.Pointer[enumMemo]
}

// config is an Analyzer's configuration: what New's options set, and what
// Over gives a view over another dataset.
type config struct {
	roi         Region
	seed        int64
	sampleCount int
	alpha       float64
	workers     int
	adaptiveErr float64
	poolCache   PoolCache
	poolFiller  PoolFiller
}

// New builds an Analyzer over the dataset. Without options the region of
// interest is the whole function space U.
func New(ds *Dataset, opts ...Option) (*Analyzer, error) {
	if ds == nil || ds.N() == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	if ds.D() < 2 {
		return nil, fmt.Errorf("core: dataset needs >= 2 scoring attributes, has %d", ds.D())
	}
	a := &Analyzer{
		config: config{roi: geom.FullSpace{D: ds.D()}, seed: 1, sampleCount: 100_000, alpha: 0.05},
		ds:     ds,
		pool:   newPoolCell(),
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.roi.Dim() != ds.D() {
		return nil, fmt.Errorf("core: region dimension %d != dataset dimension %d", a.roi.Dim(), ds.D())
	}
	return a, nil
}

// Dataset returns the analyzed dataset.
func (a *Analyzer) Dataset() *Dataset { return a.ds }

// Region returns the region of interest.
func (a *Analyzer) Region() Region { return a.roi }

// Seed returns the configured random seed; together with SampleCount and the
// region it identifies the analyzer's Monte-Carlo behaviour, which makes the
// pair usable as cache-key material for services sharing Analyzers across
// requests.
func (a *Analyzer) Seed() int64 { return a.seed }

// SampleCount returns the configured Monte-Carlo sample pool size.
func (a *Analyzer) SampleCount() int { return a.sampleCount }

// PoolBuilds returns how many times the shared sample pool has been
// (re)built. Concurrent first uses coalesce into one build, so after any
// number of successful calls it reports 1; only builds aborted by
// cancellation and later retried raise it. An analyzer derived by
// Over or ApplyDelta shares its parent's pool cell and counters, so a build
// on either one shows on both.
func (a *Analyzer) PoolBuilds() int64 { return a.pool.builds.Load() }

// PoolBuilt reports whether the shared sample pool is resident.
func (a *Analyzer) PoolBuilt() bool { return a.pool.Load().built.Load() }

// PoolMemoryBytes returns the resident size of the shared Monte-Carlo
// sample pool — the contiguous backing array (SampleCount x dimension
// float64s), the interned snapshot-key string retained with it and, once
// built, the pool's kd-tree counting index — plus the memoized enumeration
// prefix, which holds at most SampleCount x dimension x 8 bytes (in two
// dimensions too, where no pool is drawn); 0 while neither exists. This is
// the per-analyzer memory figure stablerankd reports in /statsz.
func (a *Analyzer) PoolMemoryBytes() int64 {
	var n int64
	if m := a.memo.Load(); m != nil {
		n = m.bytes
	}
	if st := a.pool.Load(); st.built.Load() {
		n += st.samples.Bytes() + int64(len(st.key)) + st.index.Load().Bytes()
	}
	return n
}

// PoolRestores returns how many times the pool was installed from an
// attached PoolCache instead of drawn; a warm restart answers its first
// query with PoolBuilds() == 0 and PoolRestores() == 1. An analyzer derived
// by Over or ApplyDelta shares its parent's pool cell and counters.
func (a *Analyzer) PoolRestores() int64 { return a.pool.restores.Load() }

// PoolSnapshotKey returns the interned PoolCache key of the resident pool,
// or "" while no pool is built or no cache is attached.
func (a *Analyzer) PoolSnapshotKey() string {
	st := a.pool.Load()
	if !st.built.Load() {
		return ""
	}
	return st.key
}

// Workers returns the effective worker count of the pool build and batch
// sweeps: the WithWorkers value, or GOMAXPROCS when unset.
func (a *Analyzer) Workers() int {
	if a.workers > 0 {
		return a.workers
	}
	return runtime.GOMAXPROCS(0)
}

// PoolBuildDuration returns the wall time of the most recent successful
// sample-pool build, or 0 if none has completed yet — the number /statsz
// exposes per resident analyzer. An analyzer derived by Over or
// ApplyDelta shares its parent's pool cell and counters.
func (a *Analyzer) PoolBuildDuration() time.Duration {
	return time.Duration(a.pool.buildNanos.Load())
}

// AdaptiveTargetError returns the WithAdaptive target confidence error, or 0
// when adaptive verification is disabled.
func (a *Analyzer) AdaptiveTargetError() float64 { return a.adaptiveErr }

// AdaptiveStops returns how many verify queries adaptive verification has
// stopped before exhausting the sample pool. An analyzer derived by
// Over or ApplyDelta shares its parent's pool cell and counters, so stops on
// either one show on both.
func (a *Analyzer) AdaptiveStops() int64 { return a.pool.adaptiveStops.Load() }

// AdaptiveRowsSaved returns the total number of pool rows that early-stopped
// verify queries skipped — the sweep work adaptive verification avoided,
// reported per analyzer in stablerankd's /statsz. An analyzer derived by
// Over or ApplyDelta shares its parent's pool cell and counters.
func (a *Analyzer) AdaptiveRowsSaved() int64 { return a.pool.adaptiveRowsSaved.Load() }

// VerifyStability computes the stability of ranking r in the region of
// interest — the fraction of acceptable scoring functions that induce it:
// exact in two dimensions, a Monte-Carlo estimate with a confidence error
// otherwise. It returns ErrInfeasibleRanking when no acceptable function
// induces r. It is Do with one VerifyQuery; verify many rankings in one Do
// call to share a single sweep of the sample pool.
func (a *Analyzer) VerifyStability(ctx context.Context, r Ranking) (Verification, error) {
	res, err := a.one(ctx, VerifyQuery{Ranking: r})
	if err != nil {
		return Verification{}, err
	}
	return *res.Verification, nil
}

// TopH returns the h most stable rankings (batch Problem 2, count form). It
// is Do with one TopHQuery.
func (a *Analyzer) TopH(ctx context.Context, h int) ([]Stable, error) {
	res, err := a.one(ctx, TopHQuery{H: h})
	return res.Stables, err
}

// AboveThreshold returns every ranking with stability >= s (batch Problem 2,
// threshold form), in decreasing stability order. It is Do with one
// AboveQuery.
func (a *Analyzer) AboveThreshold(ctx context.Context, s float64) ([]Stable, error) {
	res, err := a.one(ctx, AboveQuery{Threshold: s})
	return res.Stables, err
}

// ItemRankDistribution samples the region of interest n times and returns
// the distribution of the given item's rank — the distributional form of
// Example 1's consumer question ("does Cornell make the top-10 under
// acceptable weights?"). It is Do with one ItemRankQuery.
func (a *Analyzer) ItemRankDistribution(ctx context.Context, item, n int) (RankDistribution, error) {
	res, err := a.one(ctx, ItemRankQuery{Item: item, Samples: n})
	if err != nil {
		return RankDistribution{}, err
	}
	return *res.RankDistribution, nil
}

// Boundary returns the non-redundant boundary facets of ranking r's region:
// the item pairs whose exchange a weight perturbation can realize first. It
// works in any dimension. It is Do with one BoundaryQuery.
func (a *Analyzer) Boundary(r Ranking) ([]BoundaryFacet, error) {
	res, err := a.one(context.Background(), BoundaryQuery{Ranking: r}) //srlint:ctxflow boundary facets are exact geometry, no sampling; exported signature predates context plumbing
	return res.Facets, err
}

// one answers a single query through Do, returning the query's own error
// (for example ErrInfeasibleRanking) as the call's error.
func (a *Analyzer) one(ctx context.Context, q Query) (Result, error) {
	res, err := a.Do(ctx, q)
	if err != nil {
		return Result{}, err
	}
	return res[0], res[0].Err
}

// orBackground tolerates a nil context at the public boundary so callers
// migrating from the pre-context API cannot panic deep inside a sampling
// loop. Every exported context-taking entry point calls it first.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background() //srlint:ctxflow nil-tolerance shim for pre-context callers; live callers' contexts pass through
	}
	return ctx
}
