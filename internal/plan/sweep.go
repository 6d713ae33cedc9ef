package plan

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/vecmat"
)

// The fused sweep: one sharded pass over the Monte-Carlo sample pool that
// answers every verify AND item-rank query in the batch. It generalizes the
// verify-only batch sweep (md.VerifyBatchMatrix): within each pool block,
// every live ranking's flat constraint matrix counts its members with the
// vecmat kernel, and each sample row an item-rank query covers is scored once
// (MulVec) and ranks every such query's item from that one score vector
// (mc.RankAmong). Counts are exact integer sums, so results are
// bit-identical for every worker count.

// sweepBlock is the per-worker pool shard size; context cancellation is
// polled once per block. It matches the historical batch-verification block
// so single-verify sweeps count in the same block order.
const sweepBlock = 4096

// fusedItem is one pool-resident item-rank query: the outcome index, the
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
// every fused item-rank accumulator, sharded across env.Workers. Per-ranking
// failures (infeasibility, shape mismatches) land in the matching
// Outcome.Err without failing the sweep; only cancellation fails the call.
func fusedSweep(ctx context.Context, env *Env, pool vecmat.Matrix, queries []Query, verifyIdx []int, items []fusedItem, out []Outcome) error {
	type liveVerify struct {
		qi   int
		cons vecmat.Matrix
	}
	live := make([]liveVerify, 0, len(verifyIdx))
	for _, i := range verifyIdx {
		q := queries[i].(VerifyQuery)
		m, constraints, err := md.ConstraintMatrix(env.DS, q.Ranking)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Verify = &Verification{Constraints: constraints, SampleCount: pool.Rows()}
		live = append(live, liveVerify{qi: i, cons: m})
	}
	if len(live)+len(items) == 0 {
		return nil
	}
	// Concatenate every live ranking's constraints into one flat matrix so a
	// pool block is streamed once for the whole batch (matrix-matrix sweep)
	// instead of once per ranking; per-group early exit keeps the counts
	// bit-identical to per-ranking CountInside sweeps.
	consMats := make([]vecmat.Matrix, len(live))
	for li, v := range live {
		consMats[li] = v.cons
	}
	grouped, starts := vecmat.ConcatGroups(env.DS.D(), consMats)
	var attrs vecmat.Matrix
	if len(items) > 0 {
		attrs = vecmat.New(env.DS.N(), env.DS.D())
		for i := 0; i < env.DS.N(); i++ {
			attrs.SetRow(i, env.DS.Attrs(i))
		}
	}
	itemRows := prefixRows(items) // rows past it score nothing
	if env.OnSweep != nil {
		env.OnSweep()
	}

	workers := env.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	blocks := (pool.Rows() + sweepBlock - 1) / sweepBlock
	if workers > blocks {
		workers = blocks
	}
	// Per-worker accumulators, merged after the sweep: one membership count
	// per live verify, one dense rank histogram (1..N) per item query.
	verifyCounts := make([][]int, workers)
	rankCounts := make([][][]int, workers)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		sweepErr error
	)
	stop := make(chan struct{})
	fail := func(err error) {
		errOnce.Do(func() {
			sweepErr = err
			close(stop)
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vc := make([]int, len(live))
			verifyCounts[w] = vc
			rc := make([][]int, len(items))
			for k := range items {
				rc[k] = make([]int, env.DS.N()+1)
			}
			rankCounts[w] = rc
			var scores []float64
			if len(items) > 0 {
				scores = make([]float64, env.DS.N())
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				lo := b * sweepBlock
				hi := min(lo+sweepBlock, pool.Rows())
				// Sample-major within the block: each sample row is hoisted
				// into registers once and streamed against the concatenated
				// constraint matrix of every live ranking.
				vecmat.CountInsideGrouped(grouped, starts, pool, lo, hi, vc)
				for row, rows := lo, min(hi, itemRows); row < rows; row++ {
					attrs.MulVec(pool.Row(row), scores)
					for k, it := range items {
						if row < it.n {
							rc[k][mc.RankAmong(scores, it.item)]++
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if sweepErr != nil {
		// Clear the partially filled verify outcomes so a failed call leaves
		// no half-answered queries behind.
		for _, v := range live {
			out[v.qi].Verify = nil
		}
		return sweepErr
	}

	for li, v := range live {
		total := 0
		for w := range verifyCounts {
			total += verifyCounts[w][li]
		}
		o := out[v.qi].Verify
		o.Stability = float64(total) / float64(pool.Rows())
		if env.Confidence != nil {
			o.ConfidenceError = env.Confidence(o.Stability, pool.Rows())
		}
	}
	for k, it := range items {
		dist := &mc.RankDistribution{
			Item:    it.item,
			Counts:  make(map[int]int),
			Samples: it.n,
			Best:    env.DS.N() + 1,
		}
		for r := 1; r <= env.DS.N(); r++ {
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
		out[it.qi].ItemRank = dist
	}
	return nil
}
