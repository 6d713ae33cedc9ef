// Package plan turns a heterogeneous list of stability queries into a
// shared execution plan. The paper's operations — stability verification
// (Problem 1), top-h and above-threshold enumeration (Problem 2), iterative
// enumeration (Problem 3), item-rank distributions (Example 1) and boundary
// facets (Section 8) — are all questions about the ranking distribution a
// region of scoring functions induces, so a batch of them can share the
// expensive machinery instead of re-running it per call:
//
//   - every verify and item-rank query is answered by ONE fused sweep of the
//     Monte-Carlo sample pool (its verify counts taken through the pool's
//     kd-tree index where that pays), and
//   - every enumeration-shaped query (top-h, above-threshold, enumerate) is
//     answered from ONE cursor driven to the deepest demand, each query
//     taking a prefix of that single pass.
//
// The package is deliberately mechanism-free: it owns grouping and the fused
// sweep, while the Env callbacks supplied by the stablerank Analyzer own
// pool construction, cursor creation and confidence arithmetic. Results are
// deterministic for a fixed seed regardless of worker count — the sweep
// accumulates exact integer counts, so shard order cannot change them.
package plan

import (
	"context"
	"fmt"
	"math"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

// Query is the sealed union of stability questions. The concrete types are
// VerifyQuery, TopHQuery, AboveQuery, ItemRankQuery, BoundaryQuery and
// EnumerateQuery; external packages cannot add cases, which lets Exec treat
// an unknown dynamic type as a caller bug rather than silently skipping it.
type Query interface{ isQuery() }

// VerifyQuery asks for the stability of one ranking (Problem 1).
type VerifyQuery struct {
	// Ranking is the full ranking whose stability is requested.
	Ranking rank.Ranking
}

// TopHQuery asks for the H most stable rankings (Problem 2, count form).
type TopHQuery struct {
	// H is the number of rankings requested; H <= 0 yields none.
	H int
}

// AboveQuery asks for every ranking with stability >= Threshold (Problem 2,
// threshold form), in decreasing stability order.
type AboveQuery struct {
	Threshold float64
}

// ItemRankQuery asks for the rank distribution of one item across sampled
// scoring functions (Example 1 in distributional form).
type ItemRankQuery struct {
	// Item is the dataset index analyzed.
	Item int
	// Samples is the number of scoring-function samples; <= 0 uses the
	// analyzer's configured sample-pool size. When Samples fits in the shared
	// pool the distribution is computed inside the fused sweep (over the pool
	// prefix of that length); larger requests fall back to a dedicated
	// deterministic sampler stream.
	Samples int
}

// BoundaryQuery asks for the non-redundant boundary facets of one ranking's
// region (Section 8).
type BoundaryQuery struct {
	Ranking rank.Ranking
}

// EnumerateQuery asks for the Limit most stable rankings, or every ranking
// when Limit <= 0 — the batch form of GET-NEXT; it is also the natural query
// to stream.
type EnumerateQuery struct {
	Limit int
}

func (VerifyQuery) isQuery()    {}
func (TopHQuery) isQuery()      {}
func (AboveQuery) isQuery()     {}
func (ItemRankQuery) isQuery()  {}
func (BoundaryQuery) isQuery()  {}
func (EnumerateQuery) isQuery() {}

// Stable is one enumerated ranking with its stability, as produced by the
// Env's cursor. It is re-exported by the root stablerank package.
type Stable struct {
	// Ranking is the full ranking of the dataset.
	Ranking rank.Ranking
	// Stability is exact in 2D, Monte-Carlo otherwise.
	Stability float64
	// Weights is a representative acceptable scoring function inducing the
	// ranking.
	Weights geom.Vector
	// Exact reports whether Stability is exact.
	Exact bool
	// ConfidenceError is the half-width of the confidence interval around a
	// Monte-Carlo stability estimate; 0 when Exact.
	ConfidenceError float64
}

// Verification is the answer to one VerifyQuery — the consumer's stability
// question (Problem 1). It is re-exported by the root stablerank package. A
// ranking feasible by dominance but matched by no pool sample reports
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
	Interval *geom.Interval2D
	// Constraints describes the ranking region in higher dimensions as
	// ordering-exchange halfspaces (nil in 2D).
	Constraints []geom.Halfspace
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

// Outcome is one query's raw result; exactly one payload field (or Err) is
// populated, matching the query's type.
type Outcome struct {
	Verify   *Verification
	Stables  []Stable
	ItemRank *mc.RankDistribution
	Facets   []md.BoundaryFacet
	// Err is this query's own failure (infeasible ranking, bad item index);
	// other queries in the batch are unaffected.
	Err error
}

// Cursor steps one shared enumeration in decreasing stability; ok = false
// reports clean exhaustion.
type Cursor interface {
	Next(ctx context.Context) (s Stable, ok bool, err error)
}

// Env supplies the analyzer-owned mechanisms a plan executes against. All
// callbacks must be safe for the duration of Exec; Pool and NewCursor are
// only invoked when a query in the batch needs them, so a batch of boundary
// queries never draws a sample pool.
type Env struct {
	// DS is the analyzed dataset.
	DS *dataset.Dataset
	// TwoD selects the exact 2D machinery for verification; item-rank queries
	// then use the sampler fallback (no pool exists in 2D).
	TwoD bool
	// Interval resolves the region of interest as a 2D angle interval
	// (TwoD only).
	Interval func() (geom.Interval2D, error)
	// Pool returns the shared Monte-Carlo sample pool, building it on first
	// need (multi-dimensional only).
	Pool func(context.Context) (vecmat.Matrix, error)
	// PoolSize is the configured pool size, known without building the pool;
	// it routes item-rank queries between the fused sweep and the sampler
	// fallback before any build happens.
	PoolSize int
	// Workers shards the fused sweep (<= 0 uses GOMAXPROCS). Results are
	// identical for every value.
	Workers int
	// Sampler returns a fresh deterministic sampler for the region at the
	// given seed offset (the item-rank fallback stream).
	Sampler func(seedOffset int64) (sampling.Sampler, error)
	// NewCursor starts one enumeration of the region's rankings in
	// decreasing stability.
	NewCursor func(context.Context) (Cursor, error)
	// Confidence returns the confidence half-width for a Monte-Carlo
	// stability estimate over n samples.
	Confidence func(stability float64, n int) float64
	// OnSweep is invoked once per fused pool sweep, letting callers count
	// sweeps (nil disables).
	OnSweep func()
	// Index returns the range-counting index over the pool Pool returns, or
	// nil while none is built. qualifying is the number of verify rankings
	// in this fused sweep that would be counted through an index
	// (vecmat.UseIndex); the callback records them toward its build rule and
	// may build the index before returning. Counts are identical either way.
	// nil counts every ranking with the block scan.
	Index func(qualifying int) *vecmat.Index
	// AdaptiveError > 0 enables adaptive verification: verify queries are
	// swept in growing chunks of pool rows and stop as soon as the Confidence
	// half-width of the running estimate drops to this target. 0 (the
	// default) keeps the exact full-pool sweep. Requires Confidence.
	AdaptiveError float64
	// OnAdaptiveStop is invoked once per early-stopped verify query with the
	// pool rows actually swept and the full pool size (nil disables).
	OnAdaptiveStop func(rowsUsed, poolRows int)
}

// Exec answers every query in one shared plan. Per-query failures land in
// the matching Outcome.Err; Exec itself only fails on context cancellation
// or an unusable region/pool, in which case no outcomes are returned.
func Exec(ctx context.Context, env *Env, queries []Query) ([]Outcome, error) {
	out := make([]Outcome, len(queries))
	var verifyIdx, itemIdx, enumIdx, boundIdx []int
	for i, q := range queries {
		switch q.(type) {
		case VerifyQuery:
			verifyIdx = append(verifyIdx, i)
		case ItemRankQuery:
			itemIdx = append(itemIdx, i)
		case TopHQuery, AboveQuery, EnumerateQuery:
			enumIdx = append(enumIdx, i)
		case BoundaryQuery:
			boundIdx = append(boundIdx, i)
		case nil:
			out[i].Err = fmt.Errorf("plan: query %d is nil", i)
		default:
			out[i].Err = fmt.Errorf("plan: unknown query type %T", q)
		}
	}
	for _, i := range boundIdx {
		q := queries[i].(BoundaryQuery)
		out[i].Facets, out[i].Err = md.Boundary(env.DS, q.Ranking)
	}
	if err := execPoint(ctx, env, queries, verifyIdx, itemIdx, out); err != nil {
		return nil, err
	}
	if err := execEnum(ctx, env, queries, enumIdx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// execPoint answers the verify and item-rank queries. In two dimensions
// verification is exact per ranking and item ranks come from the sampler
// stream; otherwise everything that fits the shared pool is answered by one
// fused sweep, with oversized item-rank requests on the sampler fallback.
func execPoint(ctx context.Context, env *Env, queries []Query, verifyIdx, itemIdx []int, out []Outcome) error {
	if len(verifyIdx)+len(itemIdx) == 0 {
		return nil
	}
	if env.TwoD {
		if len(verifyIdx) > 0 {
			iv, err := env.Interval()
			if err != nil {
				return err
			}
			for _, i := range verifyIdx {
				q := queries[i].(VerifyQuery)
				res, err := twod.Verify(env.DS, q.Ranking, iv)
				if err != nil {
					out[i].Err = err
					continue
				}
				region := res.Region
				out[i].Verify = &Verification{Stability: res.Stability, Exact: true, Interval: &region}
			}
		}
		for _, i := range itemIdx {
			q := queries[i].(ItemRankQuery)
			out[i].ItemRank, out[i].Err = sampledItemRank(ctx, env, q)
		}
		return nil
	}

	// Multi-dimensional: route item-rank queries by size, then answer the
	// fused group in one pool sweep.
	var fused []fusedItem
	var oversized []int
	for _, i := range itemIdx {
		q := queries[i].(ItemRankQuery)
		n := q.Samples
		if n <= 0 {
			n = env.PoolSize
		}
		if q.Item < 0 || q.Item >= env.DS.N() {
			out[i].Err = fmt.Errorf("plan: item %d out of range [0, %d)", q.Item, env.DS.N())
			continue
		}
		if n <= env.PoolSize {
			fused = append(fused, fusedItem{qi: i, item: q.Item, n: n})
		} else {
			oversized = append(oversized, i)
		}
	}
	if len(verifyIdx)+len(fused) > 0 {
		pool, err := env.Pool(ctx)
		if err != nil {
			return err
		}
		// Adaptive verification peels the verify queries off into the
		// early-stopping chunked sweep; item-rank queries always consume
		// their full sample prefix, so they stay on the fused sweep (a mixed
		// adaptive batch therefore reports two sweeps).
		if env.AdaptiveError > 0 && env.Confidence != nil && len(verifyIdx) > 0 {
			if err := adaptiveSweep(ctx, env, pool, queries, verifyIdx, out); err != nil {
				return err
			}
			verifyIdx = nil
		}
		if len(verifyIdx)+len(fused) > 0 {
			if err := fusedSweep(ctx, env, pool, queries, verifyIdx, fused, out); err != nil {
				return err
			}
		}
	}
	for _, i := range oversized {
		q := queries[i].(ItemRankQuery)
		out[i].ItemRank, out[i].Err = sampledItemRank(ctx, env, q)
	}
	return nil
}

// sampledItemRank answers an item-rank query from a dedicated deterministic
// sampler stream — the 2D path and the fallback for requests larger than the
// shared pool. Every query gets a fresh sampler at the same fixed offset, so
// a query's distribution is identical whether it runs alone or in a batch.
func sampledItemRank(ctx context.Context, env *Env, q ItemRankQuery) (*mc.RankDistribution, error) {
	n := q.Samples
	if n <= 0 {
		n = env.PoolSize
	}
	s, err := env.Sampler(itemRankSeedOffset)
	if err != nil {
		return nil, err
	}
	dist, err := mc.ItemRankDistribution(ctx, env.DS, s, q.Item, n)
	if err != nil {
		return nil, err
	}
	return &dist, nil
}

// itemRankSeedOffset is the historical seed offset of the item-rank sampler
// stream (the analyzer's enumeration sampler uses offset 1).
const itemRankSeedOffset = 2

// execEnum answers every enumeration-shaped query from one cursor: the
// enumeration runs to the deepest demand — the largest top-h / enumerate
// limit, past the smallest above-threshold, or to exhaustion — and each
// query takes a prefix of that single pass. The returned slices share one
// backing enumeration and must be treated as read-only.
func execEnum(ctx context.Context, env *Env, queries []Query, enumIdx []int, out []Outcome) error {
	needH := 0
	unbounded := false
	hasAbove := false
	minThreshold := math.Inf(1)
	var live []int
	for _, i := range enumIdx {
		switch q := queries[i].(type) {
		case TopHQuery:
			if q.H <= 0 {
				continue // nothing requested; Stables stays nil
			}
			needH = max(needH, q.H)
		case AboveQuery:
			hasAbove = true
			if q.Threshold < minThreshold {
				minThreshold = q.Threshold
			}
		case EnumerateQuery:
			if q.Limit <= 0 {
				unbounded = true
			} else {
				needH = max(needH, q.Limit)
			}
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return nil
	}
	cursor, err := env.NewCursor(ctx)
	if err != nil {
		return err
	}
	var all []Stable
	for {
		more := len(all) < needH || unbounded
		if hasAbove && (len(all) == 0 || all[len(all)-1].Stability >= minThreshold) {
			more = true
		}
		if !more {
			break
		}
		s, ok, err := cursor.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		all = append(all, s)
	}
	for _, i := range live {
		switch q := queries[i].(type) {
		case TopHQuery:
			out[i].Stables = all[:min(q.H, len(all))]
		case EnumerateQuery:
			if q.Limit <= 0 || q.Limit >= len(all) {
				out[i].Stables = all
			} else {
				out[i].Stables = all[:q.Limit]
			}
		case AboveQuery:
			k := 0
			for k < len(all) && all[k].Stability >= q.Threshold {
				k++
			}
			out[i].Stables = all[:k]
		}
	}
	return nil
}
