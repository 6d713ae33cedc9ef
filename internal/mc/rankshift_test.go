package mc

import (
	"context"
	"math/rand"
	"testing"

	"stablerank/internal/vecmat"
)

func TestRankShiftUpdate(t *testing.T) {
	// Three items in 2D; the pool has two weight samples.
	old, err := vecmat.FromRows(2, [][]float64{{3, 0}, {2, 0}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Item 2 jumps to the top under both samples.
	upd, err := vecmat.FromRows(2, [][]float64{{3, 0}, {2, 0}, {9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := vecmat.FromRows(2, [][]float64{{1, 0}, {0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := RankShift(context.Background(), old, upd, 2, 2, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Rows != 2 || sh.Changed != 2 || sh.Improved != 2 || sh.Worsened != 0 {
		t.Fatalf("shift %+v", sh)
	}
	if sh.MeanBefore != 3 || sh.MeanAfter != 1 || sh.MaxAbsShift != 2 || sh.MeanAbsShift != 2 {
		t.Fatalf("shift %+v", sh)
	}
}

func TestRankShiftAddRemove(t *testing.T) {
	old, _ := vecmat.FromRows(2, [][]float64{{2, 0}, {1, 0}})
	with, _ := vecmat.FromRows(2, [][]float64{{2, 0}, {1, 0}, {3, 0}})
	pool, _ := vecmat.FromRows(2, [][]float64{{1, 0}})
	// Add: before side missing, counted as rank n_old+1 = 3; after rank 1.
	sh, err := RankShift(context.Background(), old, with, -1, 2, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.MeanBefore != 3 || sh.MeanAfter != 1 || sh.Improved != 1 {
		t.Fatalf("add shift %+v", sh)
	}
	// Remove: after side missing, counted as rank n_new+1 = 3.
	sh, err = RankShift(context.Background(), with, old, 2, -1, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.MeanBefore != 1 || sh.MeanAfter != 3 || sh.Worsened != 1 {
		t.Fatalf("remove shift %+v", sh)
	}
}

func TestRankShiftRowCapAndCancel(t *testing.T) {
	attrs, _ := vecmat.FromRows(2, [][]float64{{1, 0}, {2, 0}})
	pool := vecmat.New(8, 2)
	sh, err := RankShift(context.Background(), attrs, attrs, 0, 0, pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Rows != 3 || sh.Changed != 0 {
		t.Fatalf("capped shift %+v", sh)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RankShift(ctx, attrs, attrs, 0, 0, pool, 0); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

// TestRankShiftAbsentBothSides: an item added and removed within one batch
// exists in neither endpoint dataset. It has no rank on either side, so it
// must not report a shift — even when the two datasets differ in size and
// "n+1 of each side" would differ.
func TestRankShiftAbsentBothSides(t *testing.T) {
	old, _ := vecmat.FromRows(2, [][]float64{{0, 4}, {1, 3}, {2, 2}, {3, 1}})
	upd, _ := vecmat.FromRows(2, [][]float64{{0, 4}, {2, 2}, {3, 1}})
	pool, _ := vecmat.FromRows(2, [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}})
	for _, rows := range []int{0, 2} {
		sh, err := RankShift(context.Background(), old, upd, -1, -1, pool, rows)
		if err != nil {
			t.Fatal(err)
		}
		want := rows
		if rows == 0 {
			want = pool.Rows()
		}
		if sh != (Shift{Rows: want}) {
			t.Fatalf("rows=%d: absent item shifted: %+v", rows, sh)
		}
	}
}

// TestRankAmongMatchesRankOf: ranking from a MulVec score vector agrees with
// the per-item reference for every item, including exact score ties between
// duplicate small-integer items, in every specialized dimension and the
// generic one.
func TestRankAmongMatchesRankOf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{2, 3, 4, 7} {
		attrs := vecmat.New(25, d)
		for i := 0; i < attrs.Rows(); i++ {
			for j := range attrs.Row(i) {
				attrs.Row(i)[j] = float64(rng.Intn(3))
			}
		}
		scores := make([]float64, attrs.Rows())
		for trial := 0; trial < 50; trial++ {
			w := make([]float64, d)
			for j := range w {
				w[j] = rng.Float64()
			}
			if trial == 0 {
				w[0] = 0 // a zero weight ties every item differing only there
			}
			attrs.MulVec(w, scores)
			for item := 0; item < attrs.Rows(); item++ {
				if got, want := RankAmong(scores, item), RankOf(attrs, w, item); got != want {
					t.Fatalf("d=%d trial %d item %d: RankAmong %d, RankOf %d", d, trial, item, got, want)
				}
			}
		}
	}
}
