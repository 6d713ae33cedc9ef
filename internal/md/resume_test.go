package md

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/vecmat"
)

// pollCancel is a context whose Err reports cancellation on exactly its
// k-th call (never when k is 0) and counts every call, so a test can stop
// the engine at each of its polls in turn and resume it with the same
// context.
type pollCancel struct {
	context.Context
	polls, k int
}

func (c *pollCancel) Err() error {
	c.polls++
	if c.polls == c.k {
		return context.Canceled
	}
	return nil
}

// enumerateResumed returns the first depth results of a fresh engine over
// a copy of samples, resuming after every cancellation ctx reports, and
// how many times it was cancelled.
func enumerateResumed(t *testing.T, ds *dataset.Dataset, samples vecmat.Matrix, mode IntersectionMode, ctx context.Context, depth int) ([]Result, int) {
	t.Helper()
	e, err := NewEngineMatrix(ds, geom.FullSpace{D: ds.D()}, samples.Clone(), mode)
	if err != nil {
		t.Fatal(err)
	}
	var out []Result
	cancels := 0
	for len(out) < depth {
		r, err := e.Next(ctx)
		switch {
		case errors.Is(err, context.Canceled):
			cancels++
			continue
		case errors.Is(err, ErrExhausted):
			return out, cancels
		case err != nil:
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out, cancels
}

// TestEngineResumeKeepsOrder: an engine stopped at any one of its ctx.Err()
// polls and resumed emits exactly the uncancelled sequence — the same
// rankings with the same stabilities and weights, in the same order — even
// where regions tie in stability, in both intersection modes. Small integer
// attributes make ties common. LPExact solves a linear program per split,
// so it runs one shallower enumeration.
func TestEngineResumeKeepsOrder(t *testing.T) {
	const items, d, samples = 12, 3, 1000
	for _, c := range []struct {
		mode         IntersectionMode
		seeds, depth int
	}{{SamplePartition, 2, 8}, {LPExact, 1, 5}} {
		mode, depth := c.mode, c.depth
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			rr := rand.New(rand.NewSource(seed))
			ds := dataset.MustNew(d)
			for i := 0; i < items; i++ {
				ds.MustAdd("", float64(rr.Intn(6)), float64(rr.Intn(6)), float64(rr.Intn(6)))
			}
			pool := drawSamples(t, geom.FullSpace{D: d}, samples, seed)
			counter := &pollCancel{Context: context.Background()}
			want, _ := enumerateResumed(t, ds, pool, mode, counter, depth)
			differ := 0
			for k := 1; k <= counter.polls; k++ {
				got, cancels := enumerateResumed(t, ds, pool, mode, &pollCancel{Context: context.Background(), k: k}, depth)
				if cancels != 1 {
					t.Fatalf("mode %d seed %d k=%d: cancelled %d times, want 1", mode, seed, k, cancels)
				}
				if !sameResults(got, want) {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("mode %d seed %d: %d of %d resumed enumerations differ from the uncancelled one", mode, seed, differ, counter.polls)
			}
		}
	}
}

func sameResults(got, want []Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Ranking.Equal(want[i].Ranking) ||
			math.Float64bits(got[i].Stability) != math.Float64bits(want[i].Stability) ||
			len(got[i].Weights) != len(want[i].Weights) {
			return false
		}
		for j := range got[i].Weights {
			if math.Float64bits(got[i].Weights[j]) != math.Float64bits(want[i].Weights[j]) {
				return false
			}
		}
	}
	return true
}
