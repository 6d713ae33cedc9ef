package plan

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/vecmat"
)

// Batch-shaped contracts of the fused sweep, each checked with the block
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
// sides of the use rule, the qualifying ones are reported to Env.Index and
// counted through the index, the rest are scanned, and every outcome is
// bit-identical to the scan-only sweep for every worker count.
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

	base, err := Exec(ctx, testEnv(ds, pool, 1), queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		env := indexedEnv(ds, pool, workers)
		inner := env.Index
		var reported atomic.Int64
		env.Index = func(q int) *vecmat.Index {
			reported.Add(int64(q))
			return inner(q)
		}
		out, err := Exec(ctx, env, queries)
		if err != nil {
			t.Fatal(err)
		}
		if got := reported.Load(); got != int64(wantQualifying) {
			t.Fatalf("workers=%d: Env.Index told of %d qualifying rankings, want %d", workers, got, wantQualifying)
		}
		for i := range queries {
			if !reflect.DeepEqual(out[i].Verify, base[i].Verify) {
				t.Fatalf("workers=%d query %d: %+v, scan %+v", workers, i, *out[i].Verify, *base[i].Verify)
			}
		}
	}
}

// TestExecInfeasibleFailsAlone: a ranking whose first item is dominated by
// its second fails alone with md.ErrInfeasibleRanking in its Outcome.Err;
// the feasible neighbour in the same batch is answered with stability > 0.
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
	for _, mode := range envModes {
		out, err := Exec(ctx, mode.env(ds, pool, 2), []Query{good, VerifyQuery{Ranking: bad}})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Err != nil || out[0].Verify == nil || out[0].Verify.Stability <= 0 {
			t.Errorf("%s: feasible ranking got %+v, err %v; want stability > 0", mode.name, out[0].Verify, out[0].Err)
		}
		if !errors.Is(out[1].Err, md.ErrInfeasibleRanking) || out[1].Verify != nil {
			t.Errorf("%s: dominated-first ranking got %+v, err %v; want md.ErrInfeasibleRanking", mode.name, out[1].Verify, out[1].Err)
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its k-th call
// on, so a test can cancel a sweep between two of its tasks.
type pollCtx struct {
	context.Context
	polls, k atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.k.Load() {
		return context.Canceled
	}
	return nil
}

// TestExecCancelled: a cancelled context — before the sweep, or between
// two indexed rankings — makes Exec return context.Canceled and no
// outcomes, and the sweep clears every Verification it had started.
func TestExecCancelled(t *testing.T) {
	ds := testDataset(t, 7, 12, 4)
	pool := testPool(t, 707, 50000, 4)
	queries := verifyQueriesFor(t, ds, 808, 12)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, mode := range envModes {
		for _, workers := range []int{1, 4} {
			out, err := Exec(cancelled, mode.env(ds, pool, workers), queries)
			if !errors.Is(err, context.Canceled) || out != nil {
				t.Errorf("%s workers=%d: Exec = %d outcomes, %v; want none, context.Canceled", mode.name, workers, len(out), err)
			}
		}
	}
	// One worker, twelve indexed rankings: the fifth poll cancels with
	// rankings counted and rankings still to go.
	pc := &pollCtx{Context: ctx}
	pc.k.Store(5)
	env := indexedEnv(ds, pool, 1)
	verifyIdx := make([]int, len(queries))
	for i := range verifyIdx {
		verifyIdx[i] = i
	}
	out := make([]Outcome, len(queries))
	if err := fusedSweep(pc, env, pool, queries, verifyIdx, nil, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("fusedSweep = %v, want context.Canceled", err)
	}
	if got := pc.polls.Load(); got != 5 {
		t.Errorf("sweep polled the context %d times, want 5 (once per ranking until the cancel)", got)
	}
	for i := range out {
		if out[i].Verify != nil {
			t.Fatalf("query %d kept a partial Verification after cancellation", i)
		}
	}
}

// TestExecMalformedOnlyNoSweep: a batch of only malformed rankings answers
// each with its own error and never sweeps the pool.
func TestExecMalformedOnlyNoSweep(t *testing.T) {
	ds := testDataset(t, 9, 10, 3)
	pool := testPool(t, 909, 5000, 3)
	for _, mode := range envModes {
		env := mode.env(ds, pool, 0)
		sweeps := 0
		env.OnSweep = func() { sweeps++ }
		asked := false
		if inner := env.Index; inner != nil {
			env.Index = func(q int) *vecmat.Index {
				asked = true
				return inner(q)
			}
		}
		out, err := Exec(ctx, env, []Query{VerifyQuery{Ranking: rank.Ranking{Order: []int{0, 1}}}})
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Err == nil || out[0].Verify != nil {
			t.Errorf("%s: short ranking got %+v, err %v; want an error", mode.name, out[0].Verify, out[0].Err)
		}
		if sweeps != 0 || asked {
			t.Errorf("%s: %d sweeps, index asked %v; want none", mode.name, sweeps, asked)
		}
	}
}
