package stablerank

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"stablerank/internal/md"
	"stablerank/internal/twod"
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
type Query interface{ isQuery() }

// VerifyQuery asks for the stability of one ranking (Problem 1); answered in
// Result.Verification.
type VerifyQuery struct {
	// Ranking is the full ranking whose stability is requested.
	Ranking Ranking
}

// TopHQuery asks for the H most stable rankings (Problem 2, count form);
// answered in Result.Stables.
type TopHQuery struct {
	// H is the number of rankings requested; H <= 0 yields none.
	H int
}

// AboveQuery asks for every ranking with stability >= Threshold (Problem 2,
// threshold form); answered in Result.Stables.
type AboveQuery struct {
	Threshold float64
}

// ItemRankQuery asks for the rank distribution of one item across sampled
// scoring functions (Example 1); answered in Result.RankDistribution.
// Samples <= 0 uses the analyzer's sample-pool size.
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
// region (Section 8); answered in Result.Facets.
type BoundaryQuery struct {
	Ranking Ranking
}

// EnumerateQuery asks for the Limit most stable rankings, or every ranking
// when Limit <= 0; answered in Result.Stables, and the natural query to
// Stream.
type EnumerateQuery struct {
	Limit int
}

func (VerifyQuery) isQuery()    {}
func (TopHQuery) isQuery()      {}
func (AboveQuery) isQuery()     {}
func (ItemRankQuery) isQuery()  {}
func (BoundaryQuery) isQuery()  {}
func (EnumerateQuery) isQuery() {}

// Result is one query's outcome within Do or Stream; the payload field
// matching the query's type is populated, and Result.Query echoes the
// originating query so heterogeneous result lists stay self-describing.
type Result struct {
	// Query is the originating query, so heterogeneous result lists stay
	// self-describing.
	Query Query
	// Verification answers a VerifyQuery.
	Verification *Verification
	// Stables answers a TopHQuery, AboveQuery or EnumerateQuery in batch
	// mode. The rankings are the call's own deep copies, but the queries of
	// one Do call share them.
	Stables []Stable
	// Stable is one enumerated ranking in Stream mode (nil in batch mode).
	Stable *Stable
	// RankDistribution answers an ItemRankQuery.
	RankDistribution *RankDistribution
	// Facets answers a BoundaryQuery.
	Facets []BoundaryFacet
	// Err is this query's own failure (e.g. ErrInfeasibleRanking); other
	// queries in the batch are unaffected.
	Err error
}

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
	ctx = orBackground(ctx)
	out := make([]Result, len(queries))
	var verifyIdx, itemIdx, enumIdx []int
	for i, q := range queries {
		out[i].Query = q
		switch q := q.(type) {
		case VerifyQuery:
			verifyIdx = append(verifyIdx, i)
		case ItemRankQuery:
			itemIdx = append(itemIdx, i)
		case TopHQuery, AboveQuery, EnumerateQuery:
			enumIdx = append(enumIdx, i)
		case BoundaryQuery:
			facets, err := md.Boundary(a.ds, q.Ranking)
			out[i].Facets, out[i].Err = facets, mapQueryErr(err)
		case nil:
			out[i].Err = fmt.Errorf("plan: query %d is nil", i)
		default:
			out[i].Err = fmt.Errorf("plan: unknown query type %T", q)
		}
	}
	if err := a.execPoint(ctx, queries, verifyIdx, itemIdx, out); err != nil {
		return nil, err
	}
	if err := a.execEnum(ctx, queries, enumIdx, out); err != nil {
		return nil, err
	}
	return out, nil
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
	ctx = orBackground(ctx)
	return func(yield func(Result, error) bool) {
		switch q.(type) {
		case TopHQuery, AboveQuery, EnumerateQuery:
			a.streamEnum(ctx, q, yield)
		default:
			res, err := a.Do(ctx, q)
			if err != nil {
				yield(Result{Query: q, Err: err}, err)
				return
			}
			yield(res[0], res[0].Err)
		}
	}
}

func (a *Analyzer) streamEnum(ctx context.Context, q Query, yield func(Result, error) bool) {
	limit := 0 // 0 = unbounded
	threshold, hasThreshold := 0.0, false
	switch qq := q.(type) {
	case TopHQuery:
		if qq.H <= 0 {
			return
		}
		limit = qq.H
	case AboveQuery:
		threshold, hasThreshold = qq.Threshold, true
	case EnumerateQuery:
		if qq.Limit > 0 {
			limit = qq.Limit
		}
	}
	e, err := a.Enumerator(ctx)
	if err != nil {
		yield(Result{Query: q, Err: err}, err)
		return
	}
	yielded := 0
	for {
		s, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			return
		}
		if err != nil {
			yield(Result{Query: q, Err: err}, err)
			return
		}
		if hasThreshold && s.Stability < threshold {
			return
		}
		if !yield(Result{Query: q, Stable: &s}, nil) {
			return
		}
		yielded++
		if limit > 0 && yielded >= limit {
			return
		}
	}
}

// mapQueryErr folds the engine-level sentinels into this package's, so
// errors.Is(err, ErrInfeasibleRanking) works on every Result.Err.
func mapQueryErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, md.ErrInfeasibleRanking), errors.Is(err, twod.ErrInfeasibleRanking):
		return ErrInfeasibleRanking
	default:
		return err
	}
}

// Sweeps returns how many fused sample-pool sweeps the analyzer has
// performed across Do calls, the per-operation methods included. Together with
// PoolBuilds it makes plan sharing observable: a heterogeneous Do call
// mixing verify and item-rank queries raises it by exactly one. An analyzer
// derived by ApplyDelta shares its parent's pool cell and counters, so
// sweeps on either one show on both.
func (a *Analyzer) Sweeps() int64 { return a.pool.sweeps.Load() }
