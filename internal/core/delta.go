package core

import (
	"context"
	"sync"
	"sync/atomic"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/rank"
	"stablerank/internal/vecmat"
)

// Delta is one dataset mutation; see dataset.Delta.
type Delta = dataset.Delta

// Delta operations, re-exported so callers depend only on this package.
const (
	ItemAdd    = dataset.ItemAdd
	ItemRemove = dataset.ItemRemove
	AttrUpdate = dataset.AttrUpdate
)

// Drift reports how one delta shifted stability mass: the score displacement
// of the touched item across the Monte-Carlo pool (one blocked row-pass) and
// its rank displacement across a sample of pool rows. For an ItemAdd the
// "before" side is empty (score 0, rank n+1); for an ItemRemove the "after"
// side is. An item on neither side (added and removed within the batch) has
// no rank to shift: its Shift is {Rows: rows} with every other field zero.
type Drift struct {
	ID string
	Op dataset.DeltaOp
	// PoolRows is the number of pool samples the score pass covered.
	PoolRows int
	// MeanScoreDelta / MaxAbsScoreDelta summarize after-before score changes
	// of the touched item across the pool (a missing side scores 0).
	MeanScoreDelta   float64
	MaxAbsScoreDelta float64
	// Shift is the rank displacement over the sampled pool rows.
	Shift mc.Shift
}

// scoreStat is one delta's pool-wide score displacement.
type scoreStat struct {
	mean   float64
	maxAbs float64
	rows   int
}

// deltaRecord retains what LastDrift needs about the most recent ApplyDelta:
// the resolution trace, the endpoint datasets' attrs matrices, and the lazily
// computed score pass over the pool.
type deltaRecord struct {
	trace    []dataset.Applied
	oldDS    *dataset.Dataset
	oldAttrs vecmat.Matrix
	newAttrs vecmat.Matrix

	passMu   sync.Mutex
	passDone bool
	passErr  error
	stats    []scoreStat
}

// equalWeights is the canonical baseline scoring function: all attributes
// weighted 1, the paper's default example weighting.
func equalWeights(d int) geom.Vector {
	w := make(geom.Vector, d)
	for i := range w {
		w[i] = 1
	}
	return w
}

// baselineState lazily builds the incrementally maintained baseline ranking
// (equal weights) and the contiguous attrs matrix. Both are immutable once
// built: ApplyDelta clones them and splices the clones, so concurrent readers
// never observe a mutation.
func (a *Analyzer) baselineState() (*rank.Spliced, vecmat.Matrix) {
	a.baselineMu.Lock()
	defer a.baselineMu.Unlock()
	if a.baseline == nil {
		n := a.ds.N()
		attrs := vecmat.New(n, a.ds.D())
		for i := 0; i < n; i++ {
			attrs.SetRow(i, a.ds.Attrs(i))
		}
		scores := make([]float64, n)
		attrs.MulVec(equalWeights(a.ds.D()), scores)
		a.baseline = rank.NewSpliced(scores)
		a.baselineAttrs = attrs
	}
	return a.baseline, a.baselineAttrs
}

// Baseline returns the incrementally maintained equal-weights ranking. After
// any chain of ApplyDelta calls it is bit-identical to the ranking a fresh
// analyzer over the same dataset would compute.
func (a *Analyzer) Baseline() rank.Ranking {
	sp, _ := a.baselineState()
	return sp.Ranking().Clone()
}

// BaselineKey returns an order-sensitive digest of the baseline ranking,
// cheap to compare against a rebuild.
func (a *Analyzer) BaselineKey() uint64 {
	sp, _ := a.baselineState()
	return sp.Hash()
}

// DeltasApplied returns how many deltas produced this analyzer (accumulated
// along the ApplyDelta chain).
func (a *Analyzer) DeltasApplied() int64 { return a.deltasApplied.Load() }

// DeltaSplices returns how many delta operations were resolved by splicing
// the ranking state in place.
func (a *Analyzer) DeltaSplices() int64 { return a.deltaSpliced.Load() }

// DeltaResorts returns how many delta operations fell back to a full re-sort
// because the spliced key tied an existing one.
func (a *Analyzer) DeltaResorts() int64 { return a.deltaResorted.Load() }

// Warm draws (or restores) the shared Monte-Carlo sample pool now instead of
// on first query, so callers can separate pool cost from query cost.
func (a *Analyzer) Warm(ctx context.Context) error {
	_, err := a.samplePool(ctx)
	return err
}

// ApplyDelta returns a new Analyzer over the dataset with the deltas applied,
// reusing everything expensive from the receiver instead of rebuilding:
//
//   - The Monte-Carlo sample pool is carried over as-is. Pool samples are
//     weight-space points drawn from (region, seed, n) only — they never
//     depend on dataset content — so the new analyzer answers queries
//     without drawing a single sample.
//   - The baseline ranking state is spliced, not re-sorted: each delta
//     recomputes one item's score and moves one interned 64-bit key, falling
//     back to a canonical full sort only when the new key ties an existing
//     one. The spliced state is bit-identical to a from-scratch rebuild.
//
// The receiver is unchanged and remains fully usable; both analyzers may be
// queried concurrently. Configuration (region, seed, sample count, workers,
// adaptive target, pool cache/filler) carries over. An invalid delta batch
// fails atomically with no new analyzer.
func (a *Analyzer) ApplyDelta(ctx context.Context, deltas ...Delta) (*Analyzer, error) {
	if len(deltas) == 0 {
		return a, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nds, trace, err := dataset.ApplyDeltasTrace(a.ds, deltas...)
	if err != nil {
		return nil, err
	}
	if nds.N() == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	sp, attrs := a.baselineState()
	nsp := sp.Clone()
	nattrs := attrs.Clone()
	w := equalWeights(a.ds.D())
	for _, ap := range trace {
		switch ap.Delta.Op {
		case dataset.AttrUpdate:
			nattrs.SetRow(ap.Index, ap.Delta.Attrs)
			nsp.Update(ap.Index, vecmat.Dot(w, nattrs.Row(ap.Index)))
		case dataset.ItemAdd:
			nattrs = appendRow(nattrs, ap.Delta.Attrs)
			nsp.Add(vecmat.Dot(w, nattrs.Row(ap.Index)))
		case dataset.ItemRemove:
			nattrs = removeRow(nattrs, ap.Index)
			nsp.Remove(ap.Index)
		}
	}

	n := &Analyzer{
		ds:          nds,
		roi:         a.roi,
		seed:        a.seed,
		sampleCount: a.sampleCount,
		alpha:       a.alpha,
		workers:     a.workers,
		adaptiveErr: a.adaptiveErr,
		poolCache:   a.poolCache,
		poolFiller:  a.poolFiller,
	}
	n.baseline = nsp         //srlint:lockscope n is freshly constructed and unshared; no other goroutine can see it yet
	n.baselineAttrs = nattrs //srlint:lockscope n is freshly constructed and unshared; no other goroutine can see it yet
	carry(&n.poolBuilds, &a.poolBuilds)
	carry(&n.poolBuildNanos, &a.poolBuildNanos)
	carry(&n.poolRestores, &a.poolRestores)
	carry(&n.sweeps, &a.sweeps)
	carry(&n.adaptiveStops, &a.adaptiveStops)
	carry(&n.adaptiveRowsSaved, &a.adaptiveRowsSaved)
	n.deltasApplied.Store(a.deltasApplied.Load() + int64(len(trace)))
	spl, rs := nsp.Counters()
	n.deltaSpliced.Store(spl)
	n.deltaResorted.Store(rs)

	rec := &deltaRecord{trace: trace, oldDS: a.ds, oldAttrs: attrs, newAttrs: nattrs}
	if st := a.pool.Load(); st != nil && st.built.Load() {
		// Share the built pool verbatim: a built poolState cell holds only
		// immutable or atomic state, so both analyzers sweep the same
		// backing matrix and share its index and pass count. The blocked
		// row-pass pricing the delta against every sample is deferred to
		// LastDrift, so callers that never read drift pay only for the
		// splice.
		n.pool.Store(st)
	} else {
		n.pool.Store(&poolState{})
	}
	n.last = rec
	return n, nil
}

// carry copies a counter from src to dst.
func carry(dst, src *atomic.Int64) { dst.Store(src.Load()) }

// appendRow returns a copy of m with one extra row appended.
func appendRow(m vecmat.Matrix, row []float64) vecmat.Matrix {
	out := vecmat.New(m.Rows()+1, m.Stride())
	for i := 0; i < m.Rows(); i++ {
		out.SetRow(i, m.Row(i))
	}
	out.SetRow(m.Rows(), row)
	return out
}

// removeRow returns a copy of m with row idx removed (later rows shift up).
func removeRow(m vecmat.Matrix, idx int) vecmat.Matrix {
	out := vecmat.New(m.Rows()-1, m.Stride())
	for i, o := 0, 0; i < m.Rows(); i++ {
		if i == idx {
			continue
		}
		out.SetRow(o, m.Row(i))
		o++
	}
	return out
}

// pass runs the per-delta score pass over the pool at most once: one
// EvalRowsBlocked sweep evaluating every touched item's before/after
// attribute vectors against every pool sample, sharded by shardRows.
// A completed pass (success or deterministic failure) is latched and shared
// by every later call; a pass aborted by the caller's context is NOT — the
// cancellation is returned to that caller only, and the next call with a
// live context retries the sweep.
func (rec *deltaRecord) pass(ctx context.Context, pool vecmat.Matrix, workers int) ([]scoreStat, error) {
	rec.passMu.Lock()
	defer rec.passMu.Unlock()
	if rec.passDone {
		return rec.stats, rec.passErr
	}
	stats, err := rec.scorePass(ctx, pool, workers)
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	rec.stats, rec.passErr = stats, err
	rec.passDone = true
	return stats, err
}

const (
	// deltaChunkRows is the score pass's chunk: its per-chunk float sums are
	// reduced in chunk order, so the chunk size fixes MeanScoreDelta's
	// summation order.
	deltaChunkRows = 4096
	// rankChunkRows is the rank pass's chunk. A rank row scores both
	// endpoint datasets (about 2n dot products), so at n=1000 a chunk is a
	// few milliseconds of work and a 2048-row pass still spreads over 8
	// chunks. Its tallies are integers, so the chunk size cannot change the
	// answer.
	rankChunkRows = 256
)

// shardRows runs a pass over pool rows [0, rows) cut into fixed chunks of
// chunkRows, claimed in ascending order by up to workers goroutines. Each
// worker calls newWorker once for its own scratch and the returned body
// once per chunk c covering rows [lo, hi); bodies write results into
// per-chunk slots that the caller reduces after shardRows returns, so the
// answer does not depend on the worker count. A cancelled context stops
// every worker before its next chunk; shardRows returns only after all
// workers have exited, with the context's error if it was cancelled.
func shardRows(ctx context.Context, rows, chunkRows, workers int, newWorker func() func(c, lo, hi int)) error {
	chunks := (rows + chunkRows - 1) / chunkRows
	workers = min(max(workers, 1), chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := newWorker()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks || ctx.Err() != nil {
					return
				}
				lo := c * chunkRows
				body(c, lo, min(lo+chunkRows, rows))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func (rec *deltaRecord) scorePass(ctx context.Context, pool vecmat.Matrix, workers int) ([]scoreStat, error) {
	k := len(rec.trace)
	d := pool.Stride()
	// One normals row per delta side that exists: before (the displaced
	// attrs) and after (the new attrs).
	type pair struct{ before, after int }
	pairs := make([]pair, k)
	sides := 0
	for i, ap := range rec.trace {
		pairs[i] = pair{before: -1, after: -1}
		if ap.Delta.Op != dataset.ItemAdd {
			pairs[i].before = sides
			sides++
		}
		if ap.Delta.Op != dataset.ItemRemove {
			pairs[i].after = sides
			sides++
		}
	}
	normals := vecmat.New(sides, d)
	for i, ap := range rec.trace {
		if pairs[i].before >= 0 {
			normals.SetRow(pairs[i].before, ap.Prev)
		}
		if pairs[i].after >= 0 {
			normals.SetRow(pairs[i].after, ap.Delta.Attrs)
		}
	}

	rows := pool.Rows()
	chunks := (rows + deltaChunkRows - 1) / deltaChunkRows
	sums := make([][]float64, chunks)
	maxs := make([][]float64, chunks)
	err := shardRows(ctx, rows, deltaChunkRows, workers, func() func(c, lo, hi int) {
		out := make([]float64, deltaChunkRows*sides)
		return func(c, lo, hi int) {
			pool.EvalRowsBlocked(normals, lo, hi, out)
			sum := make([]float64, k)
			mx := make([]float64, k)
			for r := 0; r < hi-lo; r++ {
				base := r * sides
				for i := range pairs {
					var before, after float64
					if pairs[i].before >= 0 {
						before = out[base+pairs[i].before]
					}
					if pairs[i].after >= 0 {
						after = out[base+pairs[i].after]
					}
					dlt := after - before
					sum[i] += dlt
					if dlt < 0 {
						dlt = -dlt
					}
					if dlt > mx[i] {
						mx[i] = dlt
					}
				}
			}
			sums[c] = sum
			maxs[c] = mx
		}
	})
	if err != nil {
		return nil, err
	}
	stats := make([]scoreStat, k)
	for c := 0; c < chunks; c++ {
		for i := 0; i < k; i++ {
			stats[i].mean += sums[c][i]
			if maxs[c][i] > stats[i].maxAbs {
				stats[i].maxAbs = maxs[c][i]
			}
		}
	}
	for i := range stats {
		stats[i].rows = rows
		if rows > 0 {
			stats[i].mean /= float64(rows)
		}
	}
	return stats, nil
}

// rankPass measures every touched item's rank displacement over the first
// rows pool samples (rows <= 0 or beyond the pool means all) — the
// mc.RankShift of each trace entry between rec.oldDS and newDS, computed in
// one sharded pass: each sample scores the old and the new attrs matrix once
// with the d-specialized MulVec kernel, and every entry is ranked on both
// sides from those two score vectors with mc.RankAmong. An entry absent from
// one side ranks n+1 there; one absent from both is not ranked at all.
func (rec *deltaRecord) rankPass(ctx context.Context, pool vecmat.Matrix, newDS *dataset.Dataset, rows, workers int) ([]mc.Shift, error) {
	if rows <= 0 || rows > pool.Rows() {
		rows = pool.Rows()
	}
	k := len(rec.trace)
	oldIdx, newIdx := make([]int, k), make([]int, k)
	for i, ap := range rec.trace {
		oldIdx[i] = indexOf(rec.oldDS, ap.Delta.ID)
		newIdx[i] = indexOf(newDS, ap.Delta.ID)
	}
	nOld, nNew := rec.oldAttrs.Rows(), rec.newAttrs.Rows()
	tallies := make([][]mc.ShiftTally, (rows+rankChunkRows-1)/rankChunkRows)
	err := shardRows(ctx, rows, rankChunkRows, workers, func() func(c, lo, hi int) {
		oldScores := make([]float64, nOld)
		newScores := make([]float64, nNew)
		return func(c, lo, hi int) {
			t := make([]mc.ShiftTally, k)
			for r := lo; r < hi; r++ {
				w := pool.Row(r)
				rec.oldAttrs.MulVec(w, oldScores)
				rec.newAttrs.MulVec(w, newScores)
				for i := range t {
					if oldIdx[i] < 0 && newIdx[i] < 0 {
						continue
					}
					before, after := nOld+1, nNew+1
					if oldIdx[i] >= 0 {
						before = mc.RankAmong(oldScores, oldIdx[i])
					}
					if newIdx[i] >= 0 {
						after = mc.RankAmong(newScores, newIdx[i])
					}
					t[i].Add(before, after)
				}
			}
			tallies[c] = t
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]mc.Shift, k)
	for i := range out {
		var t mc.ShiftTally
		for _, ct := range tallies {
			t.Merge(ct[i])
		}
		out[i] = t.Shift(rows)
	}
	return out, nil
}

// LastDrift reports the stability drift of the most recent ApplyDelta that
// produced this analyzer: per touched item, the score displacement across
// the whole pool and the rank displacement across the first rankRows pool
// samples (rankRows <= 0 means all). Ranking costs two O(n) scorings of the
// endpoint datasets per sample plus O(n) per touched item, sharded over
// Workers(); cap rankRows for large pools. Returns nil when this analyzer was
// not produced by ApplyDelta. Items touched more than once in the batch are
// compared between the two endpoint datasets, not the intermediate states.
func (a *Analyzer) LastDrift(ctx context.Context, rankRows int) ([]Drift, error) {
	rec := a.last
	if rec == nil {
		return nil, nil
	}
	pool, err := a.samplePool(ctx)
	if err != nil {
		return nil, err
	}
	stats, err := rec.pass(ctx, pool, a.Workers())
	if err != nil {
		return nil, err
	}
	shifts, err := rec.rankPass(ctx, pool, a.ds, rankRows, a.Workers())
	if err != nil {
		return nil, err
	}
	out := make([]Drift, len(rec.trace))
	for i, ap := range rec.trace {
		out[i] = Drift{
			ID:               ap.Delta.ID,
			Op:               ap.Delta.Op,
			PoolRows:         stats[i].rows,
			MeanScoreDelta:   stats[i].mean,
			MaxAbsScoreDelta: stats[i].maxAbs,
			Shift:            shifts[i],
		}
	}
	return out, nil
}

// indexOf returns the index of the first item with the given ID, or -1.
func indexOf(ds *dataset.Dataset, id string) int {
	for i, n := 0, ds.N(); i < n; i++ {
		if ds.Item(i).ID == id {
			return i
		}
	}
	return -1
}
