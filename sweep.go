package stablerank

import (
	"context"

	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/vecmat"
)

// The fused sweep: the one pass over the Monte-Carlo sample pool that
// answers every verify AND item-rank query in the batch. Within each pool
// block, every scanned ranking's flat constraint matrix counts its members
// with the vecmat kernel, and each sample row an item-rank query covers is
// scored once (MulVec) and ranks every such query's item from that one score
// vector (mc.RankAmong). A ranking with enough pool rows per constraint row
// (vecmat.UseIndex) is instead counted through the pool's kd-tree index once
// the build rule (poolIndex) has built one, as one task beside the blocks.
//
// The sweep walks the pool in rounds. An exact analyzer runs one round over
// the whole scan. Adaptive verification (WithAdaptive) is the same count
// over a growing pool prefix: its rounds end on a doubling schedule, and at
// each round's end a verify stops there if its Equation 10 half-width over
// the rows seen so far is at most the target. The pool rows are an iid
// draw, so any prefix is itself an unbiased sample with the usual CLT
// guarantee at its own size. The index counts whole pools, not prefixes, so
// adaptive verifies always scan. Item-rank rows ride the same rounds.
//
// Round ends depend only on the pool size, never on the worker count, and
// every count is an exact integer sum (the index count equals the
// kernel's), so answers, stopping rows included, are bit-identical for
// every worker count, with or without the index. A verify that never
// reaches its target consumes the whole pool and reports exactly the exact
// answer (Adaptive = false).

const (
	// sweepBlock is the per-worker pool shard size; context cancellation is
	// polled once per block and once per indexed ranking.
	sweepBlock = 4096
	// adaptiveChunkMin is the first adaptive round: the smallest prefix on
	// which a confidence interval is ever consulted, and the floor on rows
	// any adaptive answer is based on.
	adaptiveChunkMin = sweepBlock
	// adaptiveChunkMax caps the doubling round schedule so stopping
	// opportunities keep a bounded spacing on large pools.
	adaptiveChunkMax = 16 * sweepBlock
)

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

// liveVerify is one verify query being counted: the result index, its flat
// constraint matrix, and its members among the pool rows swept so far.
type liveVerify struct {
	qi    int
	cons  vecmat.Matrix
	count int
}

// sweepWorker is one worker's accumulators, kept across rounds: one
// membership count per scanned verify, merged and zeroed after each round,
// and one dense rank histogram (1..N) per item query, merged after the
// sweep; plus its scoring and index-walk scratch.
type sweepWorker struct {
	counts  []int
	ranks   [][]int
	scores  []float64
	scratch vecmat.IndexScratch
}

// fusedSweep walks the pool once, feeding every verify constraint matrix and
// every fused item-rank accumulator, sharded across the analyzer's workers.
// Per-ranking failures (infeasibility, shape mismatches) land in the
// matching Result.Err without failing the sweep; only cancellation fails the
// call, and it clears every verification the sweep started.
func (a *Analyzer) fusedSweep(ctx context.Context, pool vecmat.Matrix, queries []Query, verifyIdx []int, items []fusedItem, out []Result) error {
	rows := pool.Rows()
	scan := make([]liveVerify, 0, len(verifyIdx))
	qualifying := 0
	for _, i := range verifyIdx {
		m, constraints, err := md.ConstraintMatrix(a.ds, queries[i].(VerifyQuery).Ranking)
		if err != nil {
			out[i].Err = mapQueryErr(err)
			continue
		}
		out[i].Verification = &Verification{Constraints: constraints, SampleCount: rows}
		scan = append(scan, liveVerify{qi: i, cons: m})
		if vecmat.UseIndex(pool, m) {
			qualifying++
		}
	}
	if len(scan)+len(items) == 0 {
		return nil
	}
	// An exact analyzer counts each qualifying ranking through the index
	// when the pool has one. The qualifying count is reported even when no
	// index comes back: it drives the build rule. The index counts whole
	// pools, so adaptive verifies neither use it nor count toward its build.
	adaptive := a.adaptiveErr > 0
	var ix *vecmat.Index
	var indexed []liveVerify
	if !adaptive && qualifying > 0 {
		ix = a.poolIndex(qualifying)
	}
	if ix != nil {
		indexed = make([]liveVerify, 0, qualifying)
		kept := scan[:0]
		for _, v := range scan {
			if vecmat.UseIndex(pool, v.cons) {
				indexed = append(indexed, v)
			} else {
				kept = append(kept, v)
			}
		}
		scan = kept
	}
	a.pool.sweeps.Add(1)

	ws := make([]sweepWorker, mc.Workers(a.workers, (rows+sweepBlock-1)/sweepBlock+len(indexed)))
	itemRows := prefixRows(items) // rows past it score nothing
	end := func() int {
		if len(scan) > 0 {
			return rows
		}
		return itemRows
	}
	mats := make([]vecmat.Matrix, 0, len(scan))
	var grouped vecmat.Matrix
	var starts []int
	regroup := true
	for pos, chunk := 0, adaptiveChunkMin; ; chunk = min(2*chunk, adaptiveChunkMax) {
		// Concatenate every scanned ranking's constraints into one flat
		// matrix so a pool block is streamed once for all of them; per-group
		// early exit keeps the counts bit-identical to per-ranking
		// CountInside sweeps.
		if regroup {
			mats = mats[:0]
			for _, v := range scan {
				mats = append(mats, v.cons)
			}
			grouped, starts = vecmat.ConcatGroups(a.ds.D(), mats)
		}
		hi := end()
		if adaptive && len(scan) > 0 {
			hi = min(pos+chunk, hi)
		}
		if err := a.sweepRound(ctx, pool, grouped, starts, pos, hi, ix, indexed, items, ws); err != nil {
			for _, i := range verifyIdx {
				out[i].Verification = nil
			}
			return err
		}
		pos = hi
		for _, w := range ws {
			if w.counts == nil {
				continue
			}
			for i := range scan {
				scan[i].count += w.counts[i]
				w.counts[i] = 0
			}
		}
		// Stop every adaptive verify whose half-width over the rows seen so
		// far has reached the target.
		regroup = false
		if adaptive && pos < rows {
			kept := scan[:0]
			for _, v := range scan {
				est := float64(v.count) / float64(pos)
				if ci := confidenceOf(est, pos, a.alpha); ci <= a.adaptiveErr {
					o := out[v.qi].Verification
					o.Stability, o.ConfidenceError, o.SampleCount, o.Adaptive = est, ci, pos, true
					a.pool.adaptiveStops.Add(1)
					a.pool.adaptiveRowsSaved.Add(int64(rows - pos))
					continue
				}
				kept = append(kept, v)
			}
			regroup = len(kept) < len(scan)
			scan = kept
		}
		if pos >= end() {
			break
		}
	}

	for _, live := range [2][]liveVerify{scan, indexed} {
		for _, v := range live {
			o := out[v.qi].Verification
			o.Stability = float64(v.count) / float64(rows)
			o.ConfidenceError = confidenceOf(o.Stability, rows, a.alpha)
		}
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
			for _, w := range ws {
				if w.ranks != nil {
					c += w.ranks[k][r]
				}
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

// sweepRound is one round of the sweep: tasks [0, blocks) cover pool rows
// [lo, hi) in sweepBlock blocks, counting the members of grouped's scanned
// rankings into each worker's counts and ranking the item queries' rows;
// tasks [blocks, blocks+len(indexed)) count one indexed ranking each through
// ix into its own count. Each worker allocates its accumulators in the
// first round it runs.
func (a *Analyzer) sweepRound(ctx context.Context, pool, grouped vecmat.Matrix, starts []int, lo, hi int, ix *vecmat.Index, indexed []liveVerify, items []fusedItem, ws []sweepWorker) error {
	blocks := (hi - lo + sweepBlock - 1) / sweepBlock
	attrs := a.ds.Matrix()
	itemRows := prefixRows(items)
	return mc.Shard(ctx, blocks+len(indexed), len(ws), func(w int) func(int) error {
		s := &ws[w]
		if s.counts == nil {
			s.counts = make([]int, len(starts)-1)
			if len(items) > 0 {
				s.scores = make([]float64, a.ds.N())
				s.ranks = make([][]int, len(items))
				for k := range items {
					s.ranks[k] = make([]int, a.ds.N()+1)
				}
			}
		}
		return func(t int) error {
			if t >= blocks {
				v := &indexed[t-blocks]
				v.count = ix.Count(v.cons, &s.scratch)
				return nil
			}
			blo := lo + t*sweepBlock
			bhi := min(blo+sweepBlock, hi)
			// Sample-major within the block: each sample row is hoisted
			// into registers once and streamed against the concatenated
			// constraint matrix of every scanned ranking.
			vecmat.CountInsideGrouped(grouped, starts, pool, blo, bhi, s.counts)
			for row, rows := blo, min(bhi, itemRows); row < rows; row++ {
				attrs.MulVec(pool.Row(row), s.scores)
				for k, it := range items {
					if row < it.n {
						s.ranks[k][mc.RankAmong(s.scores, it.item)]++
					}
				}
			}
			return nil
		}
	})
}
