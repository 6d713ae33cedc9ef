package stablerank

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"stablerank/internal/dataset"
	"stablerank/internal/mc"
	"stablerank/internal/vecmat"
)

// Delta is one first-class dataset mutation, resolved by item ID. Datasets
// themselves stay immutable: ApplyDeltas (on a dataset) and
// Analyzer.ApplyDelta (on an analyzer) return new values, so existing
// readers are never invalidated.
type Delta = dataset.Delta

// DeltaOp names a delta's kind.
type DeltaOp = dataset.DeltaOp

// Delta operations.
const (
	// ItemAdd appends a new item; the ID must not already exist.
	ItemAdd = dataset.ItemAdd
	// ItemRemove deletes the item with the given ID.
	ItemRemove = dataset.ItemRemove
	// AttrUpdate replaces the attribute vector of the item with the given ID.
	AttrUpdate = dataset.AttrUpdate
)

// Drift reports how one applied delta shifted stability mass; see
// Analyzer.LastDrift.
type Drift struct {
	ID string
	Op DeltaOp
	// PoolRows is the number of pool samples the score pass covered.
	PoolRows int
	// MeanScoreDelta / MaxAbsScoreDelta summarize after-before score changes
	// of the touched item across the pool (a missing side scores 0: the
	// before side of an ItemAdd, the after side of an ItemRemove).
	MeanScoreDelta   float64
	MaxAbsScoreDelta float64
	// Shift is the rank displacement over the sampled pool rows; an item
	// absent from one endpoint dataset ranks n+1 there.
	Shift Shift
}

// Shift summarizes one item's rank displacement between the two endpoint
// datasets of a delta batch across Rows sampled scoring functions (rank 1
// is best). Its fields are Rows; Changed, the samples where the rank
// differs; MeanBefore and MeanAfter, the mean ranks, where a missing side
// ranks n+1 of its dataset; MeanAbsShift and MaxAbsShift, the mean and
// largest |after-before|; and Improved and Worsened, the samples where the
// rank got strictly smaller or larger. See Drift.
type Shift = mc.Shift

// ApplyDeltas returns a new dataset with the deltas applied in order; ds is
// unchanged. The result is identical — item order included — to a dataset
// built from scratch with the same content. An invalid delta (unknown or
// duplicate ID, wrong dimension, non-finite attribute) fails the whole batch.
func ApplyDeltas(ds *Dataset, deltas ...Delta) (*Dataset, error) {
	return dataset.ApplyDeltas(ds, deltas...)
}

// DriftOf measures the stability drift the deltas would cause on ds using a
// throwaway full-space analyzer with the given seed and pool size: the
// one-shot form of Analyzer.ApplyDelta + LastDrift for callers holding no
// resident analyzer.
func DriftOf(ctx context.Context, ds *Dataset, deltas []Delta, seed int64, samples, rankRows int) ([]Drift, error) {
	ctx = orBackground(ctx)
	a, err := New(ds, WithSeed(seed), WithSampleCount(samples))
	if err != nil {
		return nil, err
	}
	if err := a.Warm(ctx); err != nil {
		return nil, err
	}
	na, err := a.ApplyDelta(ctx, deltas...)
	if err != nil {
		return nil, err
	}
	return na.LastDrift(ctx, rankRows)
}

// scoreStat is one delta's pool-wide score displacement.
type scoreStat struct {
	mean   float64
	maxAbs float64
	rows   int
}

// deltaRecord retains what LastDrift needs about the most recent ApplyDelta:
// the resolution trace, the dataset it was applied to, and the lazily
// computed score pass over the pool.
type deltaRecord struct {
	trace []dataset.Applied
	oldDS *dataset.Dataset

	passMu   sync.Mutex
	passDone bool
	passErr  error
	stats    []scoreStat
}

// DeltasApplied returns how many deltas produced this analyzer, accumulated
// along the ApplyDelta chain; an Over view starts a chain at 0.
func (a *Analyzer) DeltasApplied() int64 { return a.deltasApplied }

// Warm draws (or restores) the Monte-Carlo sample pool now instead of on
// first query.
func (a *Analyzer) Warm(ctx context.Context) error {
	_, err := a.samplePool(orBackground(ctx))
	return err
}

// Over returns an Analyzer with the receiver's configuration over another
// dataset of the same dimension, without rebuilding anything expensive: it
// shares the receiver's pool cell, built or not (pool samples are
// weight-space points, independent of dataset content), so the two draw at
// most one pool between them, and the pool's counters (PoolBuilds,
// PoolRestores, PoolBuildDuration, Sweeps, AdaptiveStops,
// AdaptiveRowsSaved) count the work of both. The view starts with an empty
// enumeration memo and no delta record (DeltasApplied 0, LastDrift nil).
// Every query result from it is bit-identical to a from-scratch analyzer
// over ds with the same configuration. The receiver stays valid; both may
// be used concurrently. Over(a.Dataset()) returns the receiver itself; a
// nil or empty dataset, or one of another dimension, is an error.
func (a *Analyzer) Over(ds *Dataset) (*Analyzer, error) {
	if ds == a.ds {
		return a, nil
	}
	if ds == nil || ds.N() == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	if ds.D() != a.ds.D() {
		return nil, fmt.Errorf("core: dataset dimension %d != analyzer dimension %d", ds.D(), a.ds.D())
	}
	return &Analyzer{config: a.config, ds: ds, pool: a.pool}, nil
}

// ApplyDelta returns a new Analyzer over the receiver's dataset with the
// deltas applied: the receiver's Over view of the mutated dataset, sharing
// its pool cell and counters, plus the batch's delta record, so
// DeltasApplied adds the batch to the receiver's count and LastDrift prices
// it. With no deltas the receiver itself is returned.
func (a *Analyzer) ApplyDelta(ctx context.Context, deltas ...Delta) (*Analyzer, error) {
	if len(deltas) == 0 {
		return a, nil
	}
	if err := orBackground(ctx).Err(); err != nil {
		return nil, err
	}
	nds, trace, err := dataset.ApplyDeltasTrace(a.ds, deltas...)
	if err != nil {
		return nil, err
	}
	na, err := a.Over(nds)
	if err != nil {
		return nil, err
	}
	// The blocked row-pass pricing the delta against every sample is
	// deferred to LastDrift, so callers that never read drift pay only for
	// the dataset copy.
	na.deltasApplied = a.deltasApplied + int64(len(trace))
	na.last = &deltaRecord{trace: trace, oldDS: a.ds}
	return na, nil
}

// pass runs the per-delta score pass over the pool at most once: one
// EvalRowsBlocked sweep evaluating every touched item's before/after
// attribute vectors against every pool sample, sharded by mc.Shard.
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
	err := mc.Shard(ctx, chunks, workers, func(int) func(int) error {
		out := make([]float64, deltaChunkRows*sides)
		return func(c int) error {
			lo := c * deltaChunkRows
			hi := min(lo+deltaChunkRows, rows)
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
			return nil
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
// one sharded pass: each sample scores both datasets' attribute matrices
// once with the d-specialized MulVec kernel, and every entry is ranked on both
// sides from those two score vectors with mc.RankAmong. An entry's item
// absent from one side (see itemEnds) ranks n+1 there; one absent from both
// is not ranked at all.
func (rec *deltaRecord) rankPass(ctx context.Context, pool vecmat.Matrix, newDS *dataset.Dataset, rows, workers int) ([]mc.Shift, error) {
	if rows <= 0 || rows > pool.Rows() {
		rows = pool.Rows()
	}
	k := len(rec.trace)
	oldIdx, newIdx := itemEnds(rec.oldDS.N(), rec.trace)
	oldAttrs, newAttrs := rec.oldDS.Matrix(), newDS.Matrix()
	nOld, nNew := oldAttrs.Rows(), newAttrs.Rows()
	tallies := make([][]mc.ShiftTally, (rows+rankChunkRows-1)/rankChunkRows)
	err := mc.Shard(ctx, len(tallies), workers, func(int) func(int) error {
		oldScores := make([]float64, nOld)
		newScores := make([]float64, nNew)
		return func(c int) error {
			t := make([]mc.ShiftTally, k)
			lo := c * rankChunkRows
			hi := min(lo+rankChunkRows, rows)
			for r := lo; r < hi; r++ {
				w := pool.Row(r)
				oldAttrs.MulVec(w, oldScores)
				newAttrs.MulVec(w, newScores)
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
			return nil
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

// LastDrift reports the stability drift of the ApplyDelta call that produced
// this analyzer: per touched item, the score displacement across the whole
// pool and the rank displacement across the first rankRows pool samples
// (rankRows <= 0 means all). Ranks compare the two endpoint datasets, so an
// item added and removed within the batch has no rank shift: its Shift is
// {Rows: rows} with every other field zero. Nil when the analyzer was not
// produced by ApplyDelta.
func (a *Analyzer) LastDrift(ctx context.Context, rankRows int) ([]Drift, error) {
	rec := a.last
	if rec == nil {
		return nil, nil
	}
	ctx = orBackground(ctx)
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

// itemEnds locates each trace entry's item in the batch's two endpoint
// datasets, -1 where it is absent, by replaying the trace's resolved rows
// over item numbers: the source's rows are items 0..nOld-1, and an ItemAdd
// numbers a new item unless it re-adds an ID the batch removed, which
// continues the (first) removed item. So with duplicate IDs each entry keeps
// the item its delta resolved to, and with unique IDs every entry on one ID
// has that ID's two endpoint positions.
func itemEnds(nOld int, trace []dataset.Applied) (from, to []int) {
	rows := make([]int, nOld, nOld+len(trace)) // the item at each row
	for i := range rows {
		rows[i] = i
	}
	removed := make(map[string][]int)
	items := nOld
	of := make([]int, len(trace))
	for k, ap := range trace {
		switch ap.Delta.Op {
		case dataset.ItemAdd:
			of[k] = items
			if r := removed[ap.Delta.ID]; len(r) > 0 {
				of[k], removed[ap.Delta.ID] = r[0], r[1:]
			} else {
				items++
			}
			rows = append(rows, of[k])
		case dataset.ItemRemove:
			of[k] = rows[ap.Index]
			removed[ap.Delta.ID] = append(removed[ap.Delta.ID], of[k])
			rows = slices.Delete(rows, ap.Index, ap.Index+1)
		default:
			of[k] = rows[ap.Index]
		}
	}
	pos := slices.Repeat([]int{-1}, items)
	for r, it := range rows {
		pos[it] = r
	}
	from, to = make([]int, len(trace)), make([]int, len(trace))
	for k, it := range of {
		from[k], to[k] = -1, pos[it]
		if it < nOld {
			from[k] = it
		}
	}
	return from, to
}
