// Property tests for the incremental delta path: an analyzer maintained
// through ApplyDelta must be bit-identical — dataset, equal-weights ranking,
// query answers — to one built from scratch over the mutated dataset, across
// seeds, worker counts, dimensions, tie-heavy data and delta orderings.
// Meaningful under `go test -race`: old and new analyzers are queried
// concurrently while the chain advances.
package stablerank_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"stablerank"
)

// tieDataset builds an n-item d-dimensional dataset on a small integer grid,
// so equal scores (decided by the index tie-break) are common.
func tieDataset(t testing.TB, n, d int, seed int64) *stablerank.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := stablerank.MustDataset(d)
	for i := 0; i < n; i++ {
		attrs := make(stablerank.Vector, d)
		for j := range attrs {
			attrs[j] = float64(rng.Intn(5))
		}
		if err := ds.Add("item"+strconv.Itoa(i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// randomDeltas generates count valid deltas against the evolving dataset,
// mixing updates, tie-inducing grid updates, adds and removes.
func randomDeltas(t testing.TB, ds *stablerank.Dataset, count int, rng *rand.Rand) ([]stablerank.Delta, *stablerank.Dataset) {
	t.Helper()
	deltas := make([]stablerank.Delta, 0, count)
	next := ds.N() // fresh IDs for adds
	for len(deltas) < count {
		var dl stablerank.Delta
		switch r := rng.Intn(10); {
		case r < 5: // update, usually back onto the tie grid
			i := rng.Intn(ds.N())
			attrs := make(stablerank.Vector, ds.D())
			for j := range attrs {
				if rng.Intn(2) == 0 {
					attrs[j] = float64(rng.Intn(5))
				} else {
					attrs[j] = rng.Float64() * 4
				}
			}
			dl = stablerank.Delta{Op: stablerank.AttrUpdate, ID: ds.Item(i).ID, Attrs: attrs}
		case r < 8: // add
			attrs := make(stablerank.Vector, ds.D())
			for j := range attrs {
				attrs[j] = float64(rng.Intn(5))
			}
			dl = stablerank.Delta{Op: stablerank.ItemAdd, ID: "new" + strconv.Itoa(next), Attrs: attrs}
			next++
		default: // remove (keep the dataset from emptying)
			if ds.N() < 4 {
				continue
			}
			dl = stablerank.Delta{Op: stablerank.ItemRemove, ID: ds.Item(rng.Intn(ds.N())).ID}
		}
		nds, err := stablerank.ApplyDeltas(ds, dl)
		if err != nil {
			t.Fatal(err)
		}
		ds = nds
		deltas = append(deltas, dl)
	}
	return deltas, ds
}

// requireSameAnalyzer asserts derived and rebuilt agree bitwise on the
// dataset, the equal-weights ranking and a Monte-Carlo (or exact) stability
// answer.
func requireSameAnalyzer(t *testing.T, ctx context.Context, derived, rebuilt *stablerank.Analyzer) {
	t.Helper()
	if dh, rh := derived.Dataset().Hash(), rebuilt.Dataset().Hash(); dh != rh {
		t.Fatalf("dataset diverged: derived %016x, rebuilt %016x", dh, rh)
	}
	w := benchEqual(rebuilt.Dataset().D())
	ranking := stablerank.RankingOf(rebuilt.Dataset(), w)
	if dr := stablerank.RankingOf(derived.Dataset(), w); !dr.Equal(ranking) {
		t.Fatalf("equal-weights ranking diverged: derived %v, rebuilt %v", dr.Order, ranking.Order)
	}
	// Bit-identical, not approximately equal: both sides integrate the same
	// pool rows in the same order. On tie-heavy data the equal-weights
	// ranking can be infeasible (exactly tied scores make its strict order
	// measure-zero); then both sides must agree on that, too.
	sv, serr := derived.VerifyStability(ctx, ranking)
	rv, rerr := rebuilt.VerifyStability(ctx, ranking)
	switch {
	case serr != nil || rerr != nil:
		if !errors.Is(serr, stablerank.ErrInfeasibleRanking) || !errors.Is(rerr, stablerank.ErrInfeasibleRanking) {
			t.Fatalf("verification errors diverged: derived %v, rebuilt %v", serr, rerr)
		}
	case sv.Stability != rv.Stability || sv.Exact != rv.Exact:
		t.Fatalf("stability diverged: derived %+v, rebuilt %+v", sv, rv)
	}
	// An item-rank distribution is always answerable and covers the pool-
	// backed path sample by sample.
	sd, err := derived.ItemRankDistribution(ctx, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := rebuilt.ItemRankDistribution(ctx, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.Counts) != len(rd.Counts) {
		t.Fatalf("rank distribution diverged: %v vs %v", sd.Counts, rd.Counts)
	}
	for rnk, c := range rd.Counts {
		if sd.Counts[rnk] != c {
			t.Fatalf("rank distribution diverged at rank %d: %d vs %d", rnk, sd.Counts[rnk], c)
		}
	}
}

// TestDeltaBitIdentity is the main property: chained ApplyDelta state equals
// a from-scratch rebuild, bitwise, across seeds, dimensions and workers.
func TestDeltaBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7} {
		for _, d := range []int{2, 3, 4} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("seed=%d/d=%d/workers=%d", seed, d, workers)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					ds := tieDataset(t, 20, d, seed)
					rng := rand.New(rand.NewSource(seed * 1000))
					deltas, finalDS := randomDeltas(t, ds, 24, rng)
					opts := []stablerank.Option{
						stablerank.WithSeed(seed),
						stablerank.WithSampleCount(2000),
						stablerank.WithWorkers(workers),
					}
					a, err := stablerank.New(ds, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if err := a.Warm(ctx); err != nil {
						t.Fatal(err)
					}
					// Apply in batches of 1, 2, 3, ... so call boundaries land
					// at many different offsets of the same sequence.
					for i, size := 0, 1; i < len(deltas); size++ {
						end := min(i+size, len(deltas))
						if a, err = a.ApplyDelta(ctx, deltas[i:end]...); err != nil {
							t.Fatal(err)
						}
						i = end
					}
					if got := a.DeltasApplied(); got != int64(len(deltas)) {
						t.Fatalf("DeltasApplied = %d, want %d", got, len(deltas))
					}
					rebuilt, err := stablerank.New(finalDS, opts...)
					if err != nil {
						t.Fatal(err)
					}
					requireSameAnalyzer(t, ctx, a, rebuilt)
				})
			}
		}
	}
}

// TestDeltaOrderingInvariance applies one delta sequence all-at-once and
// one-at-a-time and requires identical final state either way.
func TestDeltaOrderingInvariance(t *testing.T) {
	ctx := context.Background()
	ds := tieDataset(t, 16, 3, 99)
	deltas, _ := randomDeltas(t, ds, 15, rand.New(rand.NewSource(4)))
	opts := []stablerank.Option{stablerank.WithSeed(3), stablerank.WithSampleCount(1500)}

	batched, err := stablerank.New(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if batched, err = batched.ApplyDelta(ctx, deltas...); err != nil {
		t.Fatal(err)
	}

	stepped, err := stablerank.New(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, dl := range deltas {
		if stepped, err = stepped.ApplyDelta(ctx, dl); err != nil {
			t.Fatal(err)
		}
	}
	requireSameAnalyzer(t, ctx, batched, stepped)
	if b, s := batched.DeltasApplied(), stepped.DeltasApplied(); b != s {
		t.Fatalf("delta op accounting diverged: batched %d, stepped %d", b, s)
	}
}

// TestDeltaConcurrentQueries races queries on every generation of an
// ApplyDelta chain against the chain advancing — the immutability contract
// (old analyzers stay valid) checked under the race detector.
func TestDeltaConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	ds := tieDataset(t, 15, 3, 5)
	deltas, _ := randomDeltas(t, ds, 8, rand.New(rand.NewSource(6)))
	a, err := stablerank.New(ds, stablerank.WithSeed(11), stablerank.WithSampleCount(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, dl := range deltas {
		cur := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cur.VerifyStability(ctx, stablerank.RankingOf(cur.Dataset(), benchEqual(3))); err != nil {
				t.Errorf("query on old generation: %v", err)
			}
		}()
		if a, err = a.ApplyDelta(ctx, dl); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	rebuilt, err := stablerank.New(a.Dataset(), stablerank.WithSeed(11), stablerank.WithSampleCount(1000))
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalyzer(t, ctx, a, rebuilt)
}
