package stablerank

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/vecmat"
)

// Batch-shaped contracts of Do's fused sweep, each checked with the block
// scan alone and with qualifying rankings counted through the pool's index.

// tiedDataset draws n items of small-integer attributes, so rankings tie
// and skip dominated adjacent pairs and their constraint counts differ.
func tiedDataset(seed int64, n, d int) *dataset.Dataset {
	rr := rand.New(rand.NewSource(seed))
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = float64(rr.Intn(6))
		}
		ds.MustAdd("", v...)
	}
	return ds
}

// TestFusedSweepRoutesByUseRule: in one batch whose rankings fall on both
// sides of the use rule, the qualifying ones are counted toward the pool
// cell's build rule and through the index that count builds, the rest are
// scanned, and every outcome is bit-identical to the scan-only sweep for
// every worker count.
func TestFusedSweepRoutesByUseRule(t *testing.T) {
	ds := tiedDataset(3, 60, 3)
	queries := verifyQueriesFor(t, ds, 303, 24)
	counts := map[int]bool{}
	for _, q := range queries {
		m, _, err := md.ConstraintMatrix(ds, q.(VerifyQuery).Ranking)
		if err != nil {
			t.Fatal(err)
		}
		counts[m.Rows()] = true
	}
	// Put the use rule's threshold between the fewest and most constraints.
	lo, hi := 1<<30, 0
	for c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if lo == hi {
		t.Fatalf("every ranking has %d constraints; the batch cannot straddle the use rule", lo)
	}
	rows := 32 * (lo + hi) / 2
	pool := testPool(t, 404, rows, 3)
	wantQualifying := 0
	for _, q := range queries {
		m, _, _ := md.ConstraintMatrix(ds, q.(VerifyQuery).Ranking)
		if vecmat.UseIndex(pool, m) {
			wantQualifying++
		}
	}
	if wantQualifying == 0 || wantQualifying == len(queries) {
		t.Fatalf("%d of %d rankings qualify at %d rows; want a mix", wantQualifying, len(queries), rows)
	}

	base := doAll(t, poolAnalyzer(t, ds, pool, 1, false), queries)
	for _, workers := range []int{1, 2, 8} {
		// A cell whose build rule this batch's qualifying passes complete:
		// the sweep builds the index and counts the qualifying rankings
		// through it.
		a := poolAnalyzer(t, ds, pool, workers, false)
		st := a.pool.Load()
		start := indexAfterPasses - int64(wantQualifying)
		st.indexBuilds.Store(0)
		st.passes.Store(start)
		out := doAll(t, a, queries)
		if got := st.passes.Load() - start; got != int64(wantQualifying) {
			t.Fatalf("workers=%d: the sweep counted %d qualifying rankings, want %d", workers, got, wantQualifying)
		}
		if st.index.Load() == nil || st.indexBuilds.Load() != 1 {
			t.Fatalf("workers=%d: no index built on the sweep that completed the build rule", workers)
		}
		for i := range queries {
			if !reflect.DeepEqual(out[i].Verification, base[i].Verification) {
				t.Fatalf("workers=%d query %d: %+v, scan %+v", workers, i, *out[i].Verification, *base[i].Verification)
			}
		}
	}
}

// TestExecInfeasibleFailsAlone: a ranking whose first item is dominated by
// its second fails alone with ErrInfeasibleRanking in its Result.Err; the
// feasible neighbour in the same batch is answered with stability > 0.
func TestExecInfeasibleFailsAlone(t *testing.T) {
	ds := tiedDataset(5, 30, 3)
	pool := testPool(t, 505, 5000, 3)
	good := verifyQueriesFor(t, ds, 606, 1)[0]
	di, dj := -1, -1
	for i := 0; i < ds.N() && di < 0; i++ {
		for j := 0; j < ds.N(); j++ {
			if ds.DominatesIdx(i, j) {
				di, dj = i, j
				break
			}
		}
	}
	if di < 0 {
		t.Fatal("no dominating pair in the dataset")
	}
	bad := rank.Ranking{Order: []int{dj, di}}
	for i := 0; i < ds.N(); i++ {
		if i != di && i != dj {
			bad.Order = append(bad.Order, i)
		}
	}
	for _, mode := range poolModes {
		for _, workers := range []int{1, 2, 8} {
			out := doAll(t, poolAnalyzer(t, ds, pool, workers, mode.indexed), []Query{good, VerifyQuery{Ranking: bad}})
			if out[0].Err != nil || out[0].Verification == nil || out[0].Verification.Stability <= 0 {
				t.Errorf("%s workers=%d: feasible ranking got %+v, err %v; want stability > 0", mode.name, workers, out[0].Verification, out[0].Err)
			}
			if !errors.Is(out[1].Err, ErrInfeasibleRanking) || out[1].Verification != nil {
				t.Errorf("%s workers=%d: dominated-first ranking got %+v, err %v; want ErrInfeasibleRanking", mode.name, workers, out[1].Verification, out[1].Err)
			}
		}
	}
}

// TestExecCancelled: a cancelled context — before the sweep, or between
// two indexed rankings — makes Do return context.Canceled and no results,
// and the sweep clears every Verification it had started.
func TestExecCancelled(t *testing.T) {
	ds := testDataset(t, 7, 12, 4)
	pool := testPool(t, 707, 50000, 4)
	queries := verifyQueriesFor(t, ds, 808, 12)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, mode := range poolModes {
		for _, workers := range []int{1, 2, 8} {
			out, err := poolAnalyzer(t, ds, pool, workers, mode.indexed).Do(cancelled, queries...)
			if !errors.Is(err, context.Canceled) || out != nil {
				t.Errorf("%s workers=%d: Do = %d results, %v; want none, context.Canceled", mode.name, workers, len(out), err)
			}
		}
	}
	// One worker, twelve indexed rankings: the fifth poll cancels with
	// rankings counted and rankings still to go.
	pc := &pollCtx{Context: ctx, k: 5}
	a := poolAnalyzer(t, ds, pool, 1, true)
	verifyIdx := make([]int, len(queries))
	for i := range verifyIdx {
		verifyIdx[i] = i
	}
	out := make([]Result, len(queries))
	if err := a.fusedSweep(pc, pool, queries, verifyIdx, nil, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("fusedSweep = %v, want context.Canceled", err)
	}
	if pc.polls != 5 {
		t.Errorf("sweep polled the context %d times, want 5 (once per ranking until the cancel)", pc.polls)
	}
	for i := range out {
		if out[i].Verification != nil {
			t.Fatalf("query %d kept a partial Verification after cancellation", i)
		}
	}
}

// TestExecMalformedOnlyNoSweep: a batch of only malformed rankings answers
// each with its own error and never sweeps the pool.
func TestExecMalformedOnlyNoSweep(t *testing.T) {
	ds := testDataset(t, 9, 10, 3)
	pool := testPool(t, 909, 5000, 3)
	for _, mode := range poolModes {
		for _, workers := range []int{1, 2, 8} {
			a := poolAnalyzer(t, ds, pool, workers, mode.indexed)
			out := doAll(t, a, []Query{VerifyQuery{Ranking: rank.Ranking{Order: []int{0, 1}}}})
			if out[0].Err == nil || out[0].Verification != nil {
				t.Errorf("%s workers=%d: short ranking got %+v, err %v; want an error", mode.name, workers, out[0].Verification, out[0].Err)
			}
			if n, passes := a.Sweeps(), a.pool.Load().passes.Load(); n != 0 || passes != 0 {
				t.Errorf("%s workers=%d: %d sweeps, %d passes counted; want none", mode.name, workers, n, passes)
			}
		}
	}
}
