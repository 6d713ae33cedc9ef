package stablerank

import (
	"context"
	"errors"
	"iter"

	"stablerank/internal/md"
	"stablerank/internal/plan"
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
type Query = plan.Query

// VerifyQuery asks for the stability of one ranking (Problem 1); answered in
// Result.Verification.
type VerifyQuery = plan.VerifyQuery

// TopHQuery asks for the H most stable rankings (Problem 2, count form);
// answered in Result.Stables.
type TopHQuery = plan.TopHQuery

// AboveQuery asks for every ranking with stability >= Threshold (Problem 2,
// threshold form); answered in Result.Stables.
type AboveQuery = plan.AboveQuery

// ItemRankQuery asks for the rank distribution of one item across sampled
// scoring functions (Example 1); answered in Result.RankDistribution.
// Samples <= 0 uses the analyzer's sample-pool size.
type ItemRankQuery = plan.ItemRankQuery

// BoundaryQuery asks for the non-redundant boundary facets of one ranking's
// region (Section 8); answered in Result.Facets.
type BoundaryQuery = plan.BoundaryQuery

// EnumerateQuery asks for the Limit most stable rankings, or every ranking
// when Limit <= 0; answered in Result.Stables, and the natural query to
// Stream.
type EnumerateQuery = plan.EnumerateQuery

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
	outcomes, err := plan.Exec(orBackground(ctx), a.planEnv(), queries)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(queries))
	for i, o := range outcomes {
		results[i] = Result{
			Query:            queries[i],
			Verification:     o.Verify,
			Stables:          o.Stables,
			RankDistribution: o.ItemRank,
			Facets:           o.Facets,
			Err:              mapQueryErr(o.Err),
		}
	}
	return results, nil
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

// planEnv wires the analyzer's mechanisms into the plan executor.
func (a *Analyzer) planEnv() *plan.Env {
	return &plan.Env{
		DS:       a.ds,
		TwoD:     a.is2D(),
		Interval: a.interval,
		Pool:     a.samplePool,
		PoolSize: a.sampleCount,
		Workers:  a.workers,
		Sampler:  a.sampler,
		NewCursor: func(ctx context.Context) (plan.Cursor, error) {
			e, err := a.Enumerator(ctx)
			if err != nil {
				return nil, err
			}
			return enumCursor{e}, nil
		},
		Confidence:    func(s float64, n int) float64 { return confidenceOf(s, n, a.alpha) },
		OnSweep:       func() { a.sweeps.Add(1) },
		Index:         a.poolIndex,
		AdaptiveError: a.adaptiveErr,
		OnAdaptiveStop: func(rowsUsed, poolRows int) {
			a.adaptiveStops.Add(1)
			a.adaptiveRowsSaved.Add(int64(poolRows - rowsUsed))
		},
	}
}

// enumCursor adapts the Analyzer's Enumerator to the plan's cursor shape.
type enumCursor struct{ e *Enumerator }

func (c enumCursor) Next(ctx context.Context) (plan.Stable, bool, error) {
	s, err := c.e.Next(ctx)
	if errors.Is(err, ErrExhausted) {
		return plan.Stable{}, false, nil
	}
	if err != nil {
		return plan.Stable{}, false, err
	}
	return s, true, nil
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
// mixing verify and item-rank queries raises it by exactly one.
func (a *Analyzer) Sweeps() int64 { return a.sweeps.Load() }
