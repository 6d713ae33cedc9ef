package core

import (
	"context"
	"errors"
	"iter"

	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/plan"
	"stablerank/internal/twod"
)

// The unified query surface: every operation the Analyzer offers is a Query
// value, and Do answers any mix of them in one shared plan — one sample-pool
// build and one fused sweep for the verify/item-rank group, one enumeration
// cursor for the top-h/above/enumerate group. Do and Stream are the only
// query entry points; the root package's per-operation conveniences are
// declared once there, on top of Do.

// Query is the sealed union of stability questions accepted by Do and
// Stream. The concrete types are VerifyQuery, TopHQuery, AboveQuery,
// ItemRankQuery, BoundaryQuery and EnumerateQuery.
type Query = plan.Query

// VerifyQuery asks for the stability of one ranking (Problem 1).
type VerifyQuery = plan.VerifyQuery

// TopHQuery asks for the H most stable rankings (Problem 2, count form).
type TopHQuery = plan.TopHQuery

// AboveQuery asks for every ranking with stability >= Threshold (Problem 2,
// threshold form).
type AboveQuery = plan.AboveQuery

// ItemRankQuery asks for the rank distribution of one item (Example 1).
type ItemRankQuery = plan.ItemRankQuery

// BoundaryQuery asks for the non-redundant boundary facets of one ranking's
// region (Section 8).
type BoundaryQuery = plan.BoundaryQuery

// EnumerateQuery asks for the Limit most stable rankings (every ranking when
// Limit <= 0) — the batch form of GET-NEXT, and the natural query to Stream.
type EnumerateQuery = plan.EnumerateQuery

// Result is one query's outcome within Do or Stream. The payload field
// matching the query's type is populated (Verification for VerifyQuery,
// Stables for the enumeration-shaped queries, and so on); Stable carries one
// incremental ranking when the result was produced by Stream.
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
	RankDistribution *mc.RankDistribution
	// Facets answers a BoundaryQuery.
	Facets []md.BoundaryFacet
	// Err is this query's own failure (e.g. ErrInfeasibleRanking); other
	// queries in the batch are unaffected.
	Err error
}

// Do answers any mix of queries in one shared plan: all verify and
// (pool-sized) item-rank queries are folded into a single fused sweep of the
// Monte-Carlo sample pool, and all enumeration-shaped queries share a single
// cursor driven to the deepest demand, which replays the analyzer's
// enumeration memo first (see Enumerator). The sample pool is built at most
// once (and not at all for batches that need none, e.g. boundary-only or
// exact-2D ones). Per-query failures land in the matching Result.Err; Do
// itself only fails on context cancellation or an unusable region.
//
// Results are identical, bit for bit, whether a query is asked alone or in
// a batch at the same seed.
func (a *Analyzer) Do(ctx context.Context, queries ...Query) ([]Result, error) {
	outcomes, err := plan.Exec(ctx, a.planEnv(), queries)
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

// Stream answers one query incrementally. For the enumeration-shaped queries
// (TopHQuery, AboveQuery, EnumerateQuery) it yields one Result per ranking —
// Result.Stable carries the ranking — in decreasing stability, stopping at
// the query's limit/threshold or exhaustion, without materializing the whole
// answer; breaking out of the loop stops the enumeration promptly. Any other
// query yields its single batch Result once. A failure — including ctx's
// error after cancellation — is yielded once as the iteration error, and the
// sequence stops.
func (a *Analyzer) Stream(ctx context.Context, q Query) iter.Seq2[Result, error] {
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
// performed across Do calls — together with
// PoolBuilds, the observable proof that a heterogeneous batch shared one
// pool build and one sweep.
func (a *Analyzer) Sweeps() int64 { return a.sweeps.Load() }
