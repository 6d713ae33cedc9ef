package stablerank

import (
	"context"

	"stablerank/internal/core"
	"stablerank/internal/dataset"
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
type Drift = core.Drift

// ApplyDeltas returns a new dataset with the deltas applied in order; ds is
// unchanged. The result is identical — item order included — to a dataset
// built from scratch with the same content. An invalid delta (unknown or
// duplicate ID, wrong dimension, non-finite attribute) fails the whole batch.
func ApplyDeltas(ds *Dataset, deltas ...Delta) (*Dataset, error) {
	return dataset.ApplyDeltas(ds, deltas...)
}

// ApplyDelta returns a new Analyzer over the mutated dataset without
// rebuilding anything expensive: the Monte-Carlo sample pool carries over
// verbatim (pool samples are weight-space points, independent of dataset
// content) and the baseline ranking state is spliced per delta instead of
// re-sorted. Every query result from the returned analyzer is bit-identical
// to a from-scratch analyzer over the same dataset and configuration. The
// receiver stays valid; both may be used concurrently. With no deltas the
// receiver itself is returned.
func (a *Analyzer) ApplyDelta(ctx context.Context, deltas ...Delta) (*Analyzer, error) {
	na, err := a.core.ApplyDelta(orBackground(ctx), deltas...)
	if err != nil {
		return nil, err
	}
	if na == a.core {
		return a, nil
	}
	return &Analyzer{core: na}, nil
}

// Warm draws (or restores) the Monte-Carlo sample pool now instead of on
// first query.
func (a *Analyzer) Warm(ctx context.Context) error {
	return a.core.Warm(orBackground(ctx))
}

// DeltasApplied returns how many deltas produced this analyzer, accumulated
// along the ApplyDelta chain.
func (a *Analyzer) DeltasApplied() int64 { return a.core.DeltasApplied() }

// DeltaSplices returns how many delta operations were resolved by splicing
// the maintained ranking state in place.
func (a *Analyzer) DeltaSplices() int64 { return a.core.DeltaSplices() }

// DeltaResorts returns how many delta operations fell back to a full re-sort
// because the spliced ranking key tied an existing one.
func (a *Analyzer) DeltaResorts() int64 { return a.core.DeltaResorts() }

// Baseline returns the incrementally maintained equal-weights ranking,
// bit-identical to what a fresh analyzer over the same dataset computes.
func (a *Analyzer) Baseline() Ranking { return a.core.Baseline() }

// BaselineKey returns an order-sensitive digest of the baseline ranking.
func (a *Analyzer) BaselineKey() uint64 { return a.core.BaselineKey() }

// LastDrift reports the stability drift of the ApplyDelta call that produced
// this analyzer: per touched item, the score displacement across the whole
// pool and the rank displacement across the first rankRows pool samples
// (rankRows <= 0 means all). Ranks compare the two endpoint datasets, so an
// item added and removed within the batch has no rank shift: its Shift is
// {Rows: rows} with every other field zero. Nil when the analyzer was not
// produced by ApplyDelta.
func (a *Analyzer) LastDrift(ctx context.Context, rankRows int) ([]Drift, error) {
	return a.core.LastDrift(orBackground(ctx), rankRows)
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
