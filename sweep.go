package stablerank

import (
	"context"

	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/vecmat"
)

// The fused sweep: one sharded pass over the Monte-Carlo sample pool that
// answers every verify AND item-rank query in the batch. Within each pool
// block, every scanned ranking's flat constraint matrix counts its members
// with the vecmat kernel, and each sample row an item-rank query covers is
// scored once (MulVec) and ranks every such query's item from that one score
// vector (mc.RankAmong). A ranking with enough pool rows per constraint row
// (vecmat.UseIndex) is instead counted through the pool's kd-tree index once
// the build rule (poolIndex) has built one, as one task beside the blocks.
// Counts are exact integer sums and the index count equals the kernel's, so
// results are bit-identical for every worker count, with or without the
// index.

// sweepBlock is the per-worker pool shard size; context cancellation is
// polled once per block and once per indexed ranking.
const sweepBlock = 4096

// fusedItem is one pool-resident item-rank query: the result index, the
// dataset item, and how many leading pool rows it consumes.
type fusedItem struct {
	qi, item, n int
}

// prefixRows is the longest pool prefix any of the item-rank queries
// consumes.
func prefixRows(items []fusedItem) int {
	rows := 0
	for _, it := range items {
		rows = max(rows, it.n)
	}
	return rows
}

// fusedSweep walks the pool once, feeding every verify constraint matrix and
// every fused item-rank accumulator, sharded across the analyzer's workers.
// Per-ranking failures (infeasibility, shape mismatches) land in the
// matching Result.Err without failing the sweep; only cancellation fails the
// call.
func (a *Analyzer) fusedSweep(ctx context.Context, pool vecmat.Matrix, queries []Query, verifyIdx []int, items []fusedItem, out []Result) error {
	type liveVerify struct {
		qi   int
		cons vecmat.Matrix
	}
	live := make([]liveVerify, 0, len(verifyIdx))
	for _, i := range verifyIdx {
		q := queries[i].(VerifyQuery)
		m, constraints, err := md.ConstraintMatrix(a.ds, q.Ranking)
		if err != nil {
			out[i].Err = mapQueryErr(err)
			continue
		}
		out[i].Verification = &Verification{Constraints: constraints, SampleCount: pool.Rows()}
		live = append(live, liveVerify{qi: i, cons: m})
	}
	if len(live)+len(items) == 0 {
		return nil
	}
	// Route each ranking: through the index when its group qualifies and the
	// pool has one, through the block scan otherwise. The qualifying count is
	// reported even when no index comes back: it drives the build rule.
	var ix *vecmat.Index
	qualifying := 0
	for _, v := range live {
		if vecmat.UseIndex(pool, v.cons) {
			qualifying++
		}
	}
	if qualifying > 0 {
		ix = a.poolIndex(qualifying)
	}
	var scanned, indexed []int // positions in live
	for li, v := range live {
		if ix != nil && vecmat.UseIndex(pool, v.cons) {
			indexed = append(indexed, li)
		} else {
			scanned = append(scanned, li)
		}
	}
	// Concatenate every scanned ranking's constraints into one flat matrix
	// so a pool block is streamed once for all of them (matrix-matrix sweep)
	// instead of once per ranking; per-group early exit keeps the counts
	// bit-identical to per-ranking CountInside sweeps.
	consMats := make([]vecmat.Matrix, len(scanned))
	for si, li := range scanned {
		consMats[si] = live[li].cons
	}
	grouped, starts := vecmat.ConcatGroups(a.ds.D(), consMats)
	attrs := a.ds.Matrix()
	itemRows := prefixRows(items) // rows past it score nothing
	scanRows := itemRows
	if len(scanned) > 0 {
		scanRows = pool.Rows()
	}
	a.sweeps.Add(1)

	// Tasks [0, blocks) scan pool blocks; tasks [blocks, blocks+len(indexed))
	// count one indexed ranking each.
	blocks := (scanRows + sweepBlock - 1) / sweepBlock
	tasks := blocks + len(indexed)
	workers := mc.Workers(a.workers, tasks)
	// Per-worker accumulators, merged after the sweep: one membership count
	// per scanned verify, one dense rank histogram (1..N) per item query.
	// Each indexed ranking's count is written by the one task that owns it.
	verifyCounts := make([][]int, workers)
	rankCounts := make([][][]int, workers)
	indexCounts := make([]int, len(indexed))
	err := mc.Shard(ctx, tasks, workers, func(w int) func(int) error {
		vc := make([]int, len(scanned))
		verifyCounts[w] = vc
		rc := make([][]int, len(items))
		for k := range items {
			rc[k] = make([]int, a.ds.N()+1)
		}
		rankCounts[w] = rc
		var scores []float64
		if len(items) > 0 {
			scores = make([]float64, a.ds.N())
		}
		var scratch vecmat.IndexScratch
		return func(t int) error {
			if t >= blocks {
				j := t - blocks
				indexCounts[j] = ix.Count(live[indexed[j]].cons, &scratch)
				return nil
			}
			lo := t * sweepBlock
			hi := min(lo+sweepBlock, scanRows)
			// Sample-major within the block: each sample row is hoisted
			// into registers once and streamed against the concatenated
			// constraint matrix of every scanned ranking.
			vecmat.CountInsideGrouped(grouped, starts, pool, lo, hi, vc)
			for row, rows := lo, min(hi, itemRows); row < rows; row++ {
				attrs.MulVec(pool.Row(row), scores)
				for k, it := range items {
					if row < it.n {
						rc[k][mc.RankAmong(scores, it.item)]++
					}
				}
			}
			return nil
		}
	})
	if err != nil {
		// Clear the partially filled verifications so a failed call leaves
		// no half-answered queries behind.
		for _, v := range live {
			out[v.qi].Verification = nil
		}
		return err
	}

	totals := make([]int, len(live))
	for si, li := range scanned {
		for w := range verifyCounts {
			totals[li] += verifyCounts[w][si]
		}
	}
	for j, li := range indexed {
		totals[li] = indexCounts[j]
	}
	for li, v := range live {
		o := out[v.qi].Verification
		o.Stability = float64(totals[li]) / float64(pool.Rows())
		o.ConfidenceError = confidenceOf(o.Stability, pool.Rows(), a.alpha)
	}
	for k, it := range items {
		dist := &RankDistribution{
			Item:    it.item,
			Counts:  make(map[int]int),
			Samples: it.n,
			Best:    a.ds.N() + 1,
		}
		for r := 1; r <= a.ds.N(); r++ {
			c := 0
			for w := range rankCounts {
				c += rankCounts[w][k][r]
			}
			if c == 0 {
				continue
			}
			dist.Counts[r] = c
			if r < dist.Best {
				dist.Best = r
			}
			if r > dist.Worst {
				dist.Worst = r
			}
		}
		out[it.qi].RankDistribution = dist
	}
	return nil
}
