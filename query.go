package stablerank

import (
	"context"
	"iter"

	"stablerank/internal/core"
)

// The unified query API: every stability operation is a Query value, and one
// Do call answers any mix of them while sharing the expensive machinery —
// one Monte-Carlo sample-pool build and one fused sweep for the
// verify/item-rank group, one enumeration cursor for the
// top-h/above/enumerate group. Do and Stream are the query entry points. The
// per-operation methods (VerifyStability, TopH, AboveThreshold,
// ItemRankDistribution, Boundary) are each Do with a single query, so mixing
// surfaces is always safe: results are bit-identical either way at the same
// seed. To answer many questions at once — several rankings to verify, or
// top-h lists of different depths — pass them all to one Do call.

// Query is the sealed union of stability questions accepted by Do and
// Stream: VerifyQuery, TopHQuery, AboveQuery, ItemRankQuery, BoundaryQuery
// and EnumerateQuery.
type Query = core.Query

// VerifyQuery asks for the stability of one ranking (Problem 1); answered in
// Result.Verification.
type VerifyQuery = core.VerifyQuery

// TopHQuery asks for the H most stable rankings (Problem 2, count form);
// answered in Result.Stables.
type TopHQuery = core.TopHQuery

// AboveQuery asks for every ranking with stability >= Threshold (Problem 2,
// threshold form); answered in Result.Stables.
type AboveQuery = core.AboveQuery

// ItemRankQuery asks for the rank distribution of one item across sampled
// scoring functions (Example 1); answered in Result.RankDistribution.
// Samples <= 0 uses the analyzer's sample-pool size.
type ItemRankQuery = core.ItemRankQuery

// BoundaryQuery asks for the non-redundant boundary facets of one ranking's
// region (Section 8); answered in Result.Facets.
type BoundaryQuery = core.BoundaryQuery

// EnumerateQuery asks for the Limit most stable rankings, or every ranking
// when Limit <= 0; answered in Result.Stables, and the natural query to
// Stream.
type EnumerateQuery = core.EnumerateQuery

// Result is one query's outcome within Do or Stream; the payload field
// matching the query's type is populated, and Result.Query echoes the
// originating query so heterogeneous result lists stay self-describing.
type Result = core.Result

// Do answers any mix of queries in one shared plan. All verify and
// (pool-sized) item-rank queries are folded into a single fused sweep of the
// shared Monte-Carlo sample pool, and all enumeration-shaped queries share a
// single cursor driven to the deepest demand — so a heterogeneous batch
// costs one pool build and one sweep where per-operation calls would repeat
// them. Per-query failures (e.g. ErrInfeasibleRanking) land in the matching
// Result.Err; Do itself only fails on context cancellation or an unusable
// region. Results are bit-identical to the per-operation methods at the same
// seed — each of those is Do with a single query.
func (a *Analyzer) Do(ctx context.Context, queries ...Query) ([]Result, error) {
	return a.core.Do(orBackground(ctx), queries...)
}

// Stream answers one query incrementally as a Go 1.23 range-over-func
// iterator. For enumeration-shaped queries (TopHQuery, AboveQuery,
// EnumerateQuery) it yields one Result per ranking — Result.Stable carries
// the ranking — in decreasing stability without materializing the whole
// answer, which is how stablerankd serves NDJSON enumeration and async
// jobs; breaking out of the loop stops the enumeration promptly, and
// cancelling ctx yields the context's error once and stops. Any other query
// yields its single batch Result once.
func (a *Analyzer) Stream(ctx context.Context, q Query) iter.Seq2[Result, error] {
	return a.core.Stream(orBackground(ctx), q)
}

// Sweeps returns how many fused sample-pool sweeps the analyzer has
// performed across Do calls, the per-operation methods included. Together with
// PoolBuilds it makes plan sharing observable: a heterogeneous Do call
// mixing verify and item-rank queries raises it by exactly one.
func (a *Analyzer) Sweeps() int64 { return a.core.Sweeps() }
