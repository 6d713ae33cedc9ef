package stablerank

import (
	"context"

	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/vecmat"
)

// Adaptive verification: instead of always consuming the entire sample pool,
// sweep it in growing chunks and stop each verify query as soon as the
// confidence half-width of its running estimate (Equation 10 over the rows
// seen so far) reaches the caller's target. The pool rows are an iid draw,
// so any prefix is itself an unbiased sample and the prefix estimate carries
// the usual CLT guarantee at its own sample size.
//
// Determinism: chunk boundaries depend only on the pool size — never on the
// worker count — and each chunk accumulates exact integer counts, so the
// stopping row and the reported estimate are identical for every worker
// count at a fixed seed. A query that never clears its target consumes the
// whole pool and reports exactly the full-sweep answer (Adaptive = false).

const (
	// adaptiveChunkMin is the first chunk size: the smallest prefix on which
	// a confidence interval is ever consulted, and the floor on rows any
	// adaptive answer is based on.
	adaptiveChunkMin = sweepBlock
	// adaptiveChunkMax caps the doubling chunk schedule so stopping
	// opportunities keep a bounded spacing on large pools.
	adaptiveChunkMax = 16 * sweepBlock
)

// adaptiveSweep answers the verify queries with early stopping at the
// analyzer's WithAdaptive target. It mirrors fusedSweep's failure contract:
// per-ranking infeasibility lands in the matching Result.Err, and only
// cancellation fails the call (clearing every partial verification).
func (a *Analyzer) adaptiveSweep(ctx context.Context, pool vecmat.Matrix, queries []Query, verifyIdx []int, out []Result) error {
	type liveVerify struct {
		qi    int
		cons  vecmat.Matrix
		count int
	}
	live := make([]liveVerify, 0, len(verifyIdx))
	for _, i := range verifyIdx {
		q := queries[i].(VerifyQuery)
		m, constraints, err := md.ConstraintMatrix(a.ds, q.Ranking)
		if err != nil {
			out[i].Err = mapQueryErr(err)
			continue
		}
		out[i].Verification = &Verification{Constraints: constraints}
		live = append(live, liveVerify{qi: i, cons: m})
	}
	if len(live) == 0 {
		return nil
	}
	a.pool.sweeps.Add(1)
	rows := pool.Rows()
	d := a.ds.D()
	grouped, starts := concatLive(d, live, func(v *liveVerify) vecmat.Matrix { return v.cons })
	counts := make([]int, len(live))
	pos, chunk := 0, adaptiveChunkMin
	for pos < rows && len(live) > 0 {
		hi := min(pos+chunk, rows)
		err := ctx.Err()
		if err == nil {
			err = countChunkGrouped(ctx, grouped, starts, pool, pos, hi, a.workers, counts)
		}
		if err != nil {
			for _, i := range verifyIdx {
				out[i].Verification = nil
			}
			return err
		}
		pos = hi
		if chunk < adaptiveChunkMax {
			chunk *= 2
		}

		// Consult the confidence interval at the fixed chunk boundary and
		// retire every query whose half-width has reached the target.
		survivors := live[:0]
		done := false
		for li := range live {
			v := live[li]
			v.count = counts[li]
			est := float64(v.count) / float64(pos)
			ci := confidenceOf(est, pos, a.alpha)
			if ci <= a.adaptiveErr && pos < rows {
				o := out[v.qi].Verification
				o.Stability = est
				o.ConfidenceError = ci
				o.SampleCount = pos
				o.Adaptive = true
				a.pool.adaptiveStops.Add(1)
				a.pool.adaptiveRowsSaved.Add(int64(rows - pos))
				done = true
				continue
			}
			survivors = append(survivors, v)
		}
		live = survivors
		if done && len(live) > 0 {
			// Compact the concatenated constraint matrix to the survivors so
			// retired queries stop costing dot products.
			grouped, starts = concatLive(d, live, func(v *liveVerify) vecmat.Matrix { return v.cons })
			counts = counts[:len(live)]
			for li := range live {
				counts[li] = live[li].count
			}
		}
	}
	// Whatever is still live consumed the entire pool: report exactly the
	// full-sweep answer.
	for li := range live {
		v := live[li]
		est := float64(counts[li]) / float64(rows)
		o := out[v.qi].Verification
		o.Stability = est
		o.ConfidenceError = confidenceOf(est, rows, a.alpha)
		o.SampleCount = rows
	}
	return nil
}

// concatLive rebuilds the concatenated constraint matrix, of dimension d,
// for the surviving live set.
func concatLive[T any](d int, live []T, cons func(*T) vecmat.Matrix) (vecmat.Matrix, []int) {
	mats := make([]vecmat.Matrix, len(live))
	for i := range live {
		mats[i] = cons(&live[i])
	}
	return vecmat.ConcatGroups(d, mats)
}

// countChunkGrouped accumulates grouped membership counts for pool rows
// [lo, hi) into counts, sharding a chunk of several sweepBlock blocks across
// workers. Every worker sums whole blocks into its own slot (worker 0 into
// counts itself), and integer sums do not depend on which worker counted
// which block, so the result is identical for every worker count.
func countChunkGrouped(ctx context.Context, grouped vecmat.Matrix, starts []int, pool vecmat.Matrix, lo, hi, workers int, counts []int) error {
	blocks := (hi - lo + sweepBlock - 1) / sweepBlock
	if blocks <= 1 {
		vecmat.CountInsideGrouped(grouped, starts, pool, lo, hi, counts)
		return nil
	}
	part := make([][]int, mc.Workers(workers, blocks))
	err := mc.Shard(ctx, blocks, len(part), func(w int) func(int) error {
		local := counts
		if w > 0 {
			local = make([]int, len(counts))
		}
		part[w] = local
		return func(b int) error {
			blo := lo + b*sweepBlock
			vecmat.CountInsideGrouped(grouped, starts, pool, blo, min(blo+sweepBlock, hi), local)
			return nil
		}
	})
	for _, local := range part[1:] {
		for i, c := range local {
			counts[i] += c
		}
	}
	return err
}
