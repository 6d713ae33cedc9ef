package mc

import (
	"context"

	"stablerank/internal/vecmat"
)

// Shift summarizes how one item's rank moved across a sample of weight-space
// points after a dataset delta: the drift of stability mass the delta caused.
// An item present on neither side (added and removed within one batch) has
// no rank to move: its Shift is {Rows: rows} with every other field zero.
type Shift struct {
	// Rows is the number of pool samples evaluated.
	Rows int
	// Changed counts samples where the item's rank differs before vs after.
	Changed int
	// MeanBefore/MeanAfter are the item's mean rank across the samples. A
	// missing side (item added or removed) counts as rank n+1 of that side's
	// dataset, i.e. "below everything".
	MeanBefore float64
	MeanAfter  float64
	// MeanAbsShift is the mean |after-before| rank displacement.
	MeanAbsShift float64
	// MaxAbsShift is the largest single-sample rank displacement.
	MaxAbsShift int
	// Improved/Worsened count samples where the rank got strictly better
	// (smaller) or strictly worse (larger).
	Improved int
	Worsened int
}

// ShiftTally accumulates one item's before/after ranks sample by sample;
// Shift turns it into the summary. Every sum is an integer, so tallies of
// disjoint row ranges merge exactly in any order and a sharded sweep yields
// the same Shift for every worker count.
type ShiftTally struct {
	improved, worsened          int
	sumBefore, sumAfter, sumAbs int
	maxAbs                      int
}

// Add records one sample's ranks.
func (t *ShiftTally) Add(before, after int) {
	t.sumBefore += before
	t.sumAfter += after
	d := after - before
	switch {
	case d < 0:
		t.improved++
		d = -d
	case d > 0:
		t.worsened++
	}
	t.sumAbs += d
	t.maxAbs = max(t.maxAbs, d)
}

// Merge folds another tally (of disjoint rows) into t.
func (t *ShiftTally) Merge(o ShiftTally) {
	t.improved += o.improved
	t.worsened += o.worsened
	t.sumBefore += o.sumBefore
	t.sumAfter += o.sumAfter
	t.sumAbs += o.sumAbs
	t.maxAbs = max(t.maxAbs, o.maxAbs)
}

// Shift summarizes the tally over rows samples. An empty tally over rows
// samples is {Rows: rows}, the Shift of an item present on neither side.
func (t ShiftTally) Shift(rows int) Shift {
	sh := Shift{Rows: rows, Changed: t.improved + t.worsened, MaxAbsShift: t.maxAbs, Improved: t.improved, Worsened: t.worsened}
	if rows > 0 {
		sh.MeanBefore = float64(t.sumBefore) / float64(rows)
		sh.MeanAfter = float64(t.sumAfter) / float64(rows)
		sh.MeanAbsShift = float64(t.sumAbs) / float64(rows)
	}
	return sh
}

// RankShift measures the rank displacement of one item across the first rows
// weight samples of the pool (rows <= 0 or beyond the pool means all).
// oldAttrs/oldItem address the item before the delta and newAttrs/newItem
// after; pass a negative item index for the side where the item does not
// exist (oldItem < 0 for an add, newItem < 0 for a remove), which scores as
// rank n+1 of that side's dataset. When both indices are negative the item
// is on neither side and the Shift is {Rows: rows} with every other field
// zero. The sweep is sequential and deterministic: the pool rows are the
// analyzer's interned weight-space samples, so the same pool yields the same
// Shift on every replica. It ranks with the per-item RankOf, which makes it
// the reference the analyzer's sharded drift pass is checked against.
func RankShift(ctx context.Context, oldAttrs, newAttrs vecmat.Matrix, oldItem, newItem int, pool vecmat.Matrix, rows int) (Shift, error) {
	if rows <= 0 || rows > pool.Rows() {
		rows = pool.Rows()
	}
	if oldItem < 0 && newItem < 0 {
		return Shift{Rows: rows}, nil
	}
	var t ShiftTally
	for r := 0; r < rows; r++ {
		if r%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return Shift{}, err
			}
		}
		w := pool.Row(r)
		before := oldAttrs.Rows() + 1
		if oldItem >= 0 {
			before = RankOf(oldAttrs, w, oldItem)
		}
		after := newAttrs.Rows() + 1
		if newItem >= 0 {
			after = RankOf(newAttrs, w, newItem)
		}
		t.Add(before, after)
	}
	return t.Shift(rows), nil
}
