package stablerank

import (
	"context"
	"errors"
	"fmt"
	"math"

	"stablerank/internal/mc"
	"stablerank/internal/twod"
)

// The shared execution plan behind Do. The paper's operations — stability
// verification (Problem 1), top-h and above-threshold enumeration (Problem
// 2), iterative enumeration (Problem 3), item-rank distributions (Example 1)
// and boundary facets (Section 8) — are all questions about the ranking
// distribution a region of scoring functions induces, so a batch of them
// shares the expensive machinery instead of re-running it per call:
//
//   - every verify and item-rank query is answered by ONE fused sweep of the
//     Monte-Carlo sample pool (sweep.go; its verify counts taken through the
//     pool's kd-tree index where that pays, or stopped early at a round's
//     end by adaptive verification), and
//   - every enumeration-shaped query (top-h, above-threshold, enumerate) is
//     answered from ONE Enumerator driven to the deepest demand, each query
//     taking a prefix of that single pass.
//
// Results are deterministic for a fixed seed regardless of worker count —
// the sweep accumulates exact integer counts, so shard order cannot change
// them. The executor's error texts keep their "plan:" prefix: /v1/query
// renders a result's error verbatim.

// execPoint answers the verify and item-rank queries. In two dimensions
// verification is exact per ranking and item ranks come from the sampler
// stream; otherwise everything that fits the shared pool, adaptive verifies
// included, is answered by one fused sweep, with oversized item-rank
// requests on the sampler fallback.
func (a *Analyzer) execPoint(ctx context.Context, queries []Query, verifyIdx, itemIdx []int, out []Result) error {
	if len(verifyIdx)+len(itemIdx) == 0 {
		return nil
	}
	if a.is2D() {
		if len(verifyIdx) > 0 {
			iv, err := a.interval()
			if err != nil {
				return err
			}
			for _, i := range verifyIdx {
				q := queries[i].(VerifyQuery)
				res, err := twod.Verify(a.ds, q.Ranking, iv)
				if err != nil {
					out[i].Err = mapQueryErr(err)
					continue
				}
				region := res.Region
				out[i].Verification = &Verification{Stability: res.Stability, Exact: true, Interval: &region}
			}
		}
		for _, i := range itemIdx {
			out[i].RankDistribution, out[i].Err = a.sampledItemRank(ctx, queries[i].(ItemRankQuery))
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
			n = a.sampleCount
		}
		if q.Item < 0 || q.Item >= a.ds.N() {
			out[i].Err = fmt.Errorf("plan: item %d out of range [0, %d)", q.Item, a.ds.N())
			continue
		}
		if n <= a.sampleCount {
			fused = append(fused, fusedItem{qi: i, item: q.Item, n: n})
		} else {
			oversized = append(oversized, i)
		}
	}
	if len(verifyIdx)+len(fused) > 0 {
		pool, err := a.samplePool(ctx)
		if err != nil {
			return err
		}
		if err := a.fusedSweep(ctx, pool, queries, verifyIdx, fused, out); err != nil {
			return err
		}
	}
	for _, i := range oversized {
		out[i].RankDistribution, out[i].Err = a.sampledItemRank(ctx, queries[i].(ItemRankQuery))
	}
	return nil
}

// sampledItemRank answers an item-rank query from a dedicated deterministic
// sampler stream — the 2D path and the fallback for requests larger than the
// shared pool. Every query gets a fresh sampler at the same fixed offset, so
// a query's distribution is identical whether it runs alone or in a batch.
func (a *Analyzer) sampledItemRank(ctx context.Context, q ItemRankQuery) (*RankDistribution, error) {
	n := q.Samples
	if n <= 0 {
		n = a.sampleCount
	}
	s, err := a.sampler(itemRankSeedOffset)
	if err != nil {
		return nil, err
	}
	dist, err := mc.ItemRankDistribution(ctx, a.ds, s, q.Item, n)
	if err != nil {
		return nil, err
	}
	return &dist, nil
}

// itemRankSeedOffset is the historical seed offset of the item-rank sampler
// stream (the analyzer's enumeration sampler uses offset 1).
const itemRankSeedOffset = 2

// execEnum answers every enumeration-shaped query from one Enumerator: the
// enumeration runs to the deepest demand — the largest top-h / enumerate
// limit, past the smallest above-threshold, or to exhaustion — and each
// query takes a prefix of that single pass. The returned slices share one
// backing enumeration and must be treated as read-only.
func (a *Analyzer) execEnum(ctx context.Context, queries []Query, enumIdx []int, out []Result) error {
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
	e, err := a.Enumerator(ctx)
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
		s, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return err
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
