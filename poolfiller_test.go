package stablerank_test

import (
	"context"
	"sync/atomic"
	"testing"

	"stablerank"
)

// rowFiller is a PoolFiller written against the public API alone: it fills
// every pool row with the same weight vector, so the analyzer's sampled
// answers show whether it kept the filler's array.
type rowFiller struct {
	w     []float64
	short bool // return one value too few: a pool of the wrong length
	calls atomic.Int64
}

func (f *rowFiller) FillPool(_ context.Context, total, d int) ([]float64, error) {
	f.calls.Add(1)
	data := make([]float64, total*d)
	for i := range data {
		data[i] = f.w[i%d]
	}
	if f.short {
		data = data[:len(data)-1]
	}
	return data, nil
}

// TestPoolFillerOutsideTheModule: code importing only stablerank implements
// PoolFiller; the analyzer answers from the returned array, and a result of
// the wrong length falls back to the local draw.
func TestPoolFillerOutsideTheModule(t *testing.T) {
	ds := stablerank.MustDataset(3)
	ds.MustAdd("a", 0.9, 0.2, 0.4)
	ds.MustAdd("b", 0.3, 0.8, 0.5)
	ds.MustAdd("c", 0.5, 0.5, 0.9)
	ds.MustAdd("d", 0.7, 0.6, 0.1)
	w := []float64{1, 0, 0}
	inside, outside := stablerank.RankingOf(ds, w), stablerank.RankingOf(ds, []float64{0, 0, 1})
	if inside.Key() == outside.Key() {
		t.Fatal("fixture rankings coincide")
	}

	filler := &rowFiller{w: w}
	a, err := stablerank.New(ds, stablerank.WithSeed(3), stablerank.WithSampleCount(500), stablerank.WithPoolFiller(filler))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r    stablerank.Ranking
		want float64
	}{{inside, 1}, {outside, 0}} {
		v, err := a.VerifyStability(ctx, c.r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stability != c.want {
			t.Fatalf("stability of %s on the filled pool = %v, want %v", c.r.Key(), v.Stability, c.want)
		}
	}
	if filler.calls.Load() != 1 {
		t.Fatalf("filler called %d times, want 1", filler.calls.Load())
	}

	short := &rowFiller{w: w, short: true}
	fallback, err := stablerank.New(ds, stablerank.WithSeed(3), stablerank.WithSampleCount(500), stablerank.WithPoolFiller(short))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := stablerank.New(ds, stablerank.WithSeed(3), stablerank.WithSampleCount(500))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fallback.VerifyStability(ctx, inside)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.VerifyStability(ctx, inside)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stability != want.Stability || short.calls.Load() != 1 {
		t.Fatalf("wrong-length fill: stability %v after %d calls, want the local draw's %v after 1",
			got.Stability, short.calls.Load(), want.Stability)
	}
}
