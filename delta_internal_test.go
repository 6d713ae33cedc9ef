package stablerank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/vecmat"
)

func deltaDS(t *testing.T, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		attrs := make(geom.Vector, d)
		for j := range attrs {
			// A coarse grid makes score ties common, exercising the
			// index tie-break.
			attrs[j] = float64(rng.Intn(5))
		}
		if err := ds.Add(fmt.Sprintf("i%d", i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestApplyDeltaSharesPool pins the headline property: the mutated analyzer
// inherits the built pool (zero new builds) and answers exactly as a
// from-scratch rebuild does.
func TestApplyDeltaSharesPool(t *testing.T) {
	ctx := context.Background()
	ds := deltaDS(t, 40, 3, 1)
	a, err := New(ds, WithSampleCount(2000), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	builds := a.PoolBuilds()

	deltas := []Delta{
		{Op: AttrUpdate, ID: "i3", Attrs: geom.NewVector(9, 1, 2)},
		{Op: ItemRemove, ID: "i7"},
		{Op: ItemAdd, ID: "x", Attrs: geom.NewVector(2, 2, 2)},
	}
	na, err := a.ApplyDelta(ctx, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if na.PoolBuilds() != builds || !na.PoolBuilt() {
		t.Fatalf("pool not shared: builds %d -> %d, built=%v", builds, na.PoolBuilds(), na.PoolBuilt())
	}
	if na.DeltasApplied() != 3 {
		t.Fatalf("DeltasApplied = %d", na.DeltasApplied())
	}

	nds, err := dataset.ApplyDeltas(ds, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(nds, WithSampleCount(2000), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	// The equal-weights ranking of the derived dataset is the rebuild's.
	r := RankingOf(nds, []float64{1, 1, 1})
	if !RankingOf(na.Dataset(), []float64{1, 1, 1}).Equal(r) {
		t.Fatal("equal-weights ranking differs from rebuild")
	}
	// Query results must match the rebuild bitwise: same pool, same dataset.
	v1, err := verify(ctx, na, r)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := verify(ctx, fresh, r)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Stability != v2.Stability {
		t.Fatalf("stability %v vs rebuild %v", v1.Stability, v2.Stability)
	}
	// The original analyzer is untouched.
	if a.Dataset().N() != 40 || a.DeltasApplied() != 0 {
		t.Fatal("receiver mutated by ApplyDelta")
	}
}

// TestApplyDeltaColdPool: the child of an analyzer whose pool is not built
// yet shares its parent's pool cell, so the pool the child draws on first
// use is the parent's too, and the two count one build between them.
func TestApplyDeltaColdPool(t *testing.T) {
	ctx := context.Background()
	a, err := New(deltaDS(t, 10, 3, 2), WithSampleCount(500))
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.ApplyDelta(ctx, Delta{Op: AttrUpdate, ID: "i0", Attrs: geom.NewVector(1, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if na.PoolBuilt() {
		t.Fatal("no pool should exist before first query")
	}
	// First query draws the pool lazily, as on a fresh analyzer; a Monte-Carlo
	// verify may report infeasible for a tie-broken ranking, which is fine —
	// the point is that the pool got built.
	if _, err := itemRank(ctx, na, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !a.PoolBuilt() {
		t.Fatal("parent did not see the pool its child built")
	}
	if a.PoolBuilds() != 1 || na.PoolBuilds() != 1 {
		t.Fatalf("PoolBuilds = %d on the parent, %d on the child; want 1 on both", a.PoolBuilds(), na.PoolBuilds())
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	ctx := context.Background()
	a, err := New(deltaDS(t, 3, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyDelta(ctx, Delta{Op: ItemRemove, ID: "nope"}); err == nil {
		t.Fatal("unknown id should fail")
	}
	if _, err := a.ApplyDelta(ctx,
		Delta{Op: ItemRemove, ID: "i0"},
		Delta{Op: ItemRemove, ID: "i1"},
		Delta{Op: ItemRemove, ID: "i2"},
	); err != dataset.ErrEmptyDataset {
		t.Fatalf("emptying dataset: err=%v", err)
	}
	if na, err := a.ApplyDelta(ctx); err != nil || na != a {
		t.Fatalf("empty delta batch should return the receiver, got %v/%v", na, err)
	}
}

// cancelAfter is a context that cancels itself on its polls-th Err call: a
// deterministic cancellation partway through a chunked pass, which polls
// Err once per chunk. polls goes negative by one for every poll after that.
// Polls are serialized, so no poll slips between the cancelling one and the
// cancellation taking effect.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	polls  int64
}

func newCancelAfter(parent context.Context, polls int64) *cancelAfter {
	ctx, cancel := context.WithCancel(parent)
	return &cancelAfter{Context: ctx, cancel: cancel, polls: polls}
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls--; c.polls == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestLastDriftRetriesAfterCancel: a context cancelled before or during the
// drift passes must not be latched into the delta record — the same caller's
// next LastDrift with a live context gets the real statistics — and a pass
// cancelled partway stops with the context's error and leaves no worker
// goroutine behind.
func TestLastDriftRetriesAfterCancel(t *testing.T) {
	ctx := context.Background()
	a, err := New(deltaDS(t, 12, 2, 4), WithSampleCount(1000), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	na, err := a.ApplyDelta(ctx, Delta{Op: AttrUpdate, ID: "i1", Attrs: geom.NewVector(100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := na.LastDrift(cctx, 8); err == nil {
		t.Fatal("LastDrift with a cancelled context should fail")
	}
	drift, err := na.LastDrift(ctx, 8)
	if err != nil {
		t.Fatalf("LastDrift after a cancelled attempt: %v", err)
	}
	if len(drift) != 1 || drift[0].PoolRows != 1000 || drift[0].MeanScoreDelta <= 0 {
		t.Fatalf("retried drift = %+v", drift)
	}

	// 20000 rows: the score pass spans 5 chunks and the all-rows rank pass
	// 79, so small poll counts cancel the score pass and larger ones the
	// rank pass, partway through.
	big, err := New(deltaDS(t, 40, 3, 6), WithSampleCount(20000), WithSeed(5), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	batch := []Delta{{Op: AttrUpdate, ID: "i3", Attrs: geom.NewVector(4, 0, 4)}, {Op: ItemRemove, ID: "i5"}}
	ref, err := big.ApplyDelta(ctx, batch...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.LastDrift(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for _, polls := range []int64{2, 4, 20, 60} {
		nb, err := big.ApplyDelta(ctx, batch...)
		if err != nil {
			t.Fatal(err)
		}
		cctx := newCancelAfter(ctx, polls)
		if _, err := nb.LastDrift(cctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: LastDrift cancelled mid-pass returned %v, want context.Canceled", polls, err)
		}
		// Stopping within one chunk: after the cancelling poll, each of the
		// other 3 workers polls at most once more before exiting, and the
		// pass and LastDrift check the context once each on the way out.
		if extra := -cctx.polls; extra > 5 {
			t.Fatalf("polls=%d: %d polls after cancellation; workers kept claiming chunks", polls, extra)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("polls=%d: %d goroutines after the cancelled pass, baseline %d", polls, n, baseline)
		}
		got, err := nb.LastDrift(ctx, 0)
		if err != nil {
			t.Fatalf("polls=%d: retry: %v", polls, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("polls=%d: retried drift %+v, want %+v", polls, got, want)
		}
	}
}

func TestLastDrift(t *testing.T) {
	ctx := context.Background()
	a, err := New(deltaDS(t, 12, 2, 4), WithSampleCount(1000), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := a.LastDrift(ctx, 0); err != nil || d != nil {
		t.Fatalf("fresh analyzer drift = %v/%v", d, err)
	}
	na, err := a.ApplyDelta(ctx,
		Delta{Op: AttrUpdate, ID: "i1", Attrs: geom.NewVector(100, 100)},
		Delta{Op: ItemRemove, ID: "i2"},
		Delta{Op: ItemAdd, ID: "y", Attrs: geom.NewVector(50, 50)},
	)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := na.LastDrift(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 3 {
		t.Fatalf("drift rows = %d", len(drift))
	}
	up := drift[0]
	if up.ID != "i1" || up.Op != AttrUpdate || up.PoolRows != 1000 {
		t.Fatalf("drift[0] = %+v", up)
	}
	if up.MeanScoreDelta <= 0 || up.MaxAbsScoreDelta <= 0 {
		t.Fatalf("jumping to (100,100) should raise scores: %+v", up)
	}
	if up.Shift.Rows != 64 || up.Shift.MeanAfter >= up.Shift.MeanBefore {
		t.Fatalf("rank should improve: %+v", up.Shift)
	}
	rm := drift[1]
	if rm.Op != ItemRemove || rm.Shift.MeanAfter != float64(na.Dataset().N()+1) {
		t.Fatalf("removed item should rank n+1 after: %+v", rm.Shift)
	}
	ad := drift[2]
	if ad.Op != ItemAdd || ad.Shift.MeanBefore != 13 {
		t.Fatalf("added item should rank n_old+1=13 before: %+v", ad.Shift)
	}
}

// driftDS is a random n-item d-dimensional dataset named i0..i{n-1}. With
// grid set the attributes are small integers, so duplicate items make exact
// score ties under every weight vector.
func driftDS(t *testing.T, rng *rand.Rand, n, d int, grid bool) *dataset.Dataset {
	t.Helper()
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		if err := ds.Add(fmt.Sprintf("i%d", i), driftAttrs(rng, d, grid)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func driftAttrs(rng *rand.Rand, d int, grid bool) geom.Vector {
	v := make(geom.Vector, d)
	for j := range v {
		if grid {
			v[j] = float64(rng.Intn(3))
		} else {
			v[j] = rng.Float64()
		}
	}
	return v
}

// driftBatch is a random valid batch of k deltas mixing updates, adds and
// removes; about half the ops reuse an ID the batch already touched, so items
// are updated after an add, removed after an update, re-added after a
// remove, and so on.
func driftBatch(rng *rand.Rand, ds *dataset.Dataset, k int, grid bool) []Delta {
	live := make(map[string]bool, ds.N())
	for i := 0; i < ds.N(); i++ {
		live[ds.Item(i).ID] = true
	}
	var touched []string
	fresh := 0
	pick := func() string {
		if len(touched) > 0 && rng.Intn(2) == 0 {
			return touched[rng.Intn(len(touched))]
		}
		if rng.Intn(4) == 0 {
			fresh++
			return fmt.Sprintf("new%d", fresh)
		}
		return ds.Item(rng.Intn(ds.N())).ID
	}
	var out []Delta
	for len(out) < k {
		id := pick()
		var dl Delta
		switch {
		case !live[id]:
			dl = Delta{Op: ItemAdd, ID: id, Attrs: driftAttrs(rng, ds.D(), grid)}
			live[id] = true
		case rng.Intn(3) == 0 && len(live) > 2:
			dl = Delta{Op: ItemRemove, ID: id}
			delete(live, id)
		default:
			dl = Delta{Op: AttrUpdate, ID: id, Attrs: driftAttrs(rng, ds.D(), grid)}
		}
		out = append(out, dl)
		touched = append(touched, id)
	}
	return out
}

func attrsMatrix(ds *dataset.Dataset) vecmat.Matrix {
	m := vecmat.New(ds.N(), ds.D())
	for i := 0; i < ds.N(); i++ {
		m.SetRow(i, ds.Attrs(i))
	}
	return m
}

// TestLastDriftScoresDisplacedVectors checks the score pass against a plain
// loop over the pool, for a batch that updates one item twice and updates an
// item before removing an earlier one: each entry is priced from the vector
// it displaced, not from the row's final or shifted content.
func TestLastDriftScoresDisplacedVectors(t *testing.T) {
	ctx := context.Background()
	ds := deltaDS(t, 12, 3, 6)
	a, err := New(ds, WithSampleCount(5000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{
		{Op: AttrUpdate, ID: "i4", Attrs: geom.NewVector(9, 0, 1)},
		{Op: AttrUpdate, ID: "i4", Attrs: geom.NewVector(0, 8, 2)},
		{Op: AttrUpdate, ID: "i7", Attrs: geom.NewVector(3, 3, 7)},
		{Op: ItemRemove, ID: "i2"},
	}
	before := []geom.Vector{ds.Attrs(4), deltas[0].Attrs, ds.Attrs(7), ds.Attrs(2)}
	na, err := a.ApplyDelta(ctx, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := na.LastDrift(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := na.samplePool(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, dl := range deltas {
		var sum, maxAbs float64
		for r := 0; r < pool.Rows(); r++ {
			var after float64
			if dl.Op != ItemRemove {
				after = vecmat.Dot(dl.Attrs, pool.Row(r))
			}
			delta := after - vecmat.Dot(before[i], pool.Row(r))
			sum += delta
			maxAbs = max(maxAbs, math.Abs(delta))
		}
		mean := sum / float64(pool.Rows())
		if got := drift[i]; math.Abs(got.MeanScoreDelta-mean) > 1e-9 || got.MaxAbsScoreDelta != maxAbs {
			t.Fatalf("entry %d (%v %s): mean %v max %v, want %v %v", i, dl.Op, dl.ID, got.MeanScoreDelta, got.MaxAbsScoreDelta, mean, maxAbs)
		}
	}
}

// indexOf returns the index of the first item with the given ID, or -1: the
// reference resolution of a drift entry on a dataset with unique IDs.
func indexOf(ds *dataset.Dataset, id string) int {
	for i, n := 0, ds.N(); i < n; i++ {
		if ds.Item(i).ID == id {
			return i
		}
	}
	return -1
}

// TestLastDriftMatchesRankShift is the rank pass's differential test: on
// random datasets (some with tied scores) and random mixed batches, every
// entry's Shift equals the per-item reference mc.RankShift, for rank rows
// covering all of the pool, a prefix, and more than the pool, and the whole
// []Drift is identical for 1, 2 and 8 workers.
func TestLastDriftMatchesRankShift(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	const poolRows = 9000 // three score-pass chunks, 36 rank-pass chunks
	for trial, d := range []int{2, 3, 4, 7, 2, 3, 4, 7} {
		grid := trial%2 == 0
		ds := driftDS(t, rng, 20+rng.Intn(30), d, grid)
		deltas := driftBatch(rng, ds, 3+rng.Intn(5), grid)
		if trial == 0 {
			// Pin the phantom: an item added and removed within one batch.
			deltas = append(deltas, Delta{Op: ItemAdd, ID: "ghost", Attrs: driftAttrs(rng, d, grid)}, Delta{Op: ItemRemove, ID: "ghost"})
		}
		nds, err := dataset.ApplyDeltas(ds, deltas...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oldAttrs, newAttrs := attrsMatrix(ds), attrsMatrix(nds)
		for _, rankRows := range []int{0, 1000, poolRows + 500} {
			var first []Drift
			for _, workers := range []int{1, 2, 8} {
				a, err := New(ds, WithSampleCount(poolRows), WithSeed(int64(trial)), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Warm(ctx); err != nil {
					t.Fatal(err)
				}
				na, err := a.ApplyDelta(ctx, deltas...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := na.LastDrift(ctx, rankRows)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
					pool, err := na.samplePool(ctx)
					if err != nil {
						t.Fatal(err)
					}
					for i, dr := range got {
						oldIdx, newIdx := indexOf(ds, dr.ID), indexOf(nds, dr.ID)
						want, err := mc.RankShift(ctx, oldAttrs, newAttrs, oldIdx, newIdx, pool, rankRows)
						if err != nil {
							t.Fatal(err)
						}
						if dr.Shift != want {
							t.Fatalf("trial %d d=%d rankRows=%d entry %d (%v %s): pass %+v, RankShift %+v",
								trial, d, rankRows, i, dr.Op, dr.ID, dr.Shift, want)
						}
						if oldIdx < 0 && newIdx < 0 && dr.Shift != (mc.Shift{Rows: dr.Shift.Rows}) {
							t.Fatalf("trial %d: %s is in neither dataset but shifted: %+v", trial, dr.ID, dr.Shift)
						}
					}
					continue
				}
				if !slices.Equal(got, first) {
					t.Fatalf("trial %d d=%d rankRows=%d: workers=%d drift\n%+v\ndiffers from workers=1\n%+v", trial, d, rankRows, workers, got, first)
				}
			}
		}
	}
}

// TestItemEnds pins where the drift rank pass finds each entry's item: on
// duplicate IDs the item the delta resolved to, and with unique IDs the ID's
// two endpoint positions, a re-added ID continuing the removed item.
func TestItemEnds(t *testing.T) {
	dup := dataset.MustNew(2)
	dup.MustAdd("x", 0.9, 0.9)
	dup.MustAdd("y", 0.5, 0.5)
	dup.MustAdd("x", 0.1, 0.1)
	for _, tc := range []struct {
		ds       *dataset.Dataset
		deltas   []Delta
		from, to []int
	}{
		{dup, []Delta{
			{Op: ItemRemove, ID: "x"},
			{Op: AttrUpdate, ID: "x", Attrs: geom.NewVector(0.95, 0.95)},
		}, []int{0, 2}, []int{-1, 1}},
		{deltaDS(t, 4, 2, 1), []Delta{
			{Op: ItemRemove, ID: "i1"},
			{Op: ItemAdd, ID: "i1", Attrs: geom.NewVector(1, 1)},
			{Op: AttrUpdate, ID: "i1", Attrs: geom.NewVector(2, 2)},
			{Op: ItemAdd, ID: "new", Attrs: geom.NewVector(3, 3)},
			{Op: ItemRemove, ID: "new"},
			{Op: ItemRemove, ID: "i0"},
		}, []int{1, 1, 1, -1, -1, 0}, []int{2, 2, 2, -1, -1, -1}},
	} {
		_, trace, err := dataset.ApplyDeltasTrace(tc.ds, tc.deltas...)
		if err != nil {
			t.Fatal(err)
		}
		from, to := itemEnds(tc.ds.N(), trace)
		if !slices.Equal(from, tc.from) || !slices.Equal(to, tc.to) {
			t.Errorf("%v: from %v to %v, want %v %v", tc.deltas, from, to, tc.from, tc.to)
		}
	}
}

// TestLastDriftPhantomItem: an item added and then removed in the same
// batch exists in neither endpoint dataset, so it has no rank to shift —
// even though the two datasets differ in size.
func TestLastDriftPhantomItem(t *testing.T) {
	ctx := context.Background()
	ds := dataset.MustNew(2)
	for i, id := range []string{"a", "b", "c", "d"} {
		ds.MustAdd(id, float64(i), float64(4-i))
	}
	a, err := New(ds, WithSampleCount(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.ApplyDelta(ctx,
		Delta{Op: ItemAdd, ID: "x", Attrs: geom.NewVector(9, 9)},
		Delta{Op: ItemRemove, ID: "b"},
		Delta{Op: ItemRemove, ID: "x"},
	)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := na.LastDrift(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if drift[i].ID != "x" || drift[i].Shift != (mc.Shift{Rows: 64}) {
			t.Fatalf("drift[%d] = %+v, want x with Shift{Rows: 64}", i, drift[i])
		}
	}
	if b := drift[1].Shift; b.Rows != 64 || b.MeanAfter != 4 {
		t.Fatalf("removed b should rank n_new+1 = 4 after: %+v", b)
	}
}

// TestLastDriftConcurrent: many goroutines pricing the same batch at once
// share the latched score pass and each run their own rank pass; every
// caller gets the same answer. Run under -race.
func TestLastDriftConcurrent(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	ds := driftDS(t, rng, 40, 3, true)
	a, err := New(ds, WithSampleCount(9000), WithSeed(2), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	na, err := a.ApplyDelta(ctx, driftBatch(rng, ds, 5, true)...)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([][]Drift, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = na.LastDrift(ctx, 0)
		}()
	}
	wg.Wait()
	for g := range callers {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if !slices.Equal(results[g], results[0]) {
			t.Fatalf("caller %d drift %+v differs from caller 0 %+v", g, results[g], results[0])
		}
	}
}

// TestLineageMatchesFresh runs random ApplyDelta histories over one dataset.
// Each grows a lineage by add, remove and update batches, chained up to four
// derivations deep, some taken while the shared pool is still cold. Warm and
// Do calls (verify, item-rank, top-h) go to its members in random order, and
// the first pool build is cancelled mid-draw at least once before a live
// call, or every member at once, retries it. After every step each member
// answers bit for bit as a fresh New over its dataset with the same options
// does, and every member reports the same PoolBuilds: one draw plus one per
// cancelled attempt.
func TestLineageMatchesFresh(t *testing.T) {
	histories := 10
	if testing.Short() {
		histories = 4
	}
	for _, workers := range []int{1, 3} {
		for h := range histories {
			seed := int64(100*workers + h)
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				t.Cleanup(func() {
					if t.Failed() {
						t.Logf("lineage history: seed %d, workers %d", seed, workers)
					}
				})
				lineageHistory(t, seed, workers)
			})
		}
	}
}

// lineageMember is one analyzer of a lineage beside a fresh analyzer over
// its dataset.
type lineageMember struct {
	a, fresh *Analyzer
	depth    int
}

func lineageHistory(t *testing.T, seed int64, workers int) {
	const steps, maxMembers, maxDepth = 12, 6, 4
	rng := rand.New(rand.NewSource(seed))
	grid := rng.Intn(2) == 0
	// 5000 rows are two pool chunks, so three workers draw concurrently.
	opts := []Option{WithSeed(seed), WithSampleCount(5000), WithWorkers(workers)}
	w := []float64(driftAttrs(rng, 3, false))
	queries := func(ds *dataset.Dataset) []Query {
		return []Query{
			VerifyQuery{Ranking: RankingOf(ds, []float64{1, 1, 1})},
			VerifyQuery{Ranking: RankingOf(ds, w)},
			ItemRankQuery{Item: ds.N() - 1},
			TopHQuery{H: 3},
		}
	}
	member := func(a *Analyzer, depth int) lineageMember {
		fresh, err := New(a.Dataset(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return lineageMember{a: a, fresh: fresh, depth: depth}
	}
	same := func(step int, m lineageMember, qs []Query) {
		t.Helper()
		if got, want := doAll(t, m.a, qs), doAll(t, m.fresh, qs); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: depth-%d member answers %+v, fresh analyzer %+v", step, m.depth, got, want)
		}
	}
	root, err := New(driftDS(t, rng, 8, 3, grid), opts...)
	if err != nil {
		t.Fatal(err)
	}
	members := []lineageMember{member(root, 0)}
	cancels, cold := 0, true
	coldSteps := rng.Intn(4) // derivations before any member touches the pool
	for step := range steps {
		m := members[rng.Intn(len(members))]
		op := rng.Intn(3) // derive, Warm or Do
		switch {
		case step < coldSteps:
			op = 0
		case op == 0 && (m.depth == maxDepth || len(members) == maxMembers), cold && step >= steps/3:
			op = 1 + rng.Intn(2)
		}
		if op > 0 && cold {
			// Cancel the first build partway through its draw: a poll
			// after the first one lands inside a chunk, and the draw polls
			// at least ten times.
			for range 1 + rng.Intn(2) {
				c := members[rng.Intn(len(members))]
				cctx := newCancelAfter(ctx, int64(3+rng.Intn(5)))
				if err := c.a.Warm(cctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("step %d: cancelled Warm returned %v", step, err)
				}
				cctx.cancel()
				cancels++
			}
			cold = false
			if rng.Intn(2) == 0 {
				// Every member races for the retried build at once.
				var wg sync.WaitGroup
				for _, c := range members {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := c.a.Warm(ctx); err != nil {
							t.Errorf("step %d: concurrent Warm: %v", step, err)
						}
					}()
				}
				wg.Wait()
			}
		}
		switch op {
		case 0:
			batch := driftBatch(rng, m.a.Dataset(), 1+rng.Intn(3), grid)
			child, err := m.a.ApplyDelta(ctx, batch...)
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, member(child, m.depth+1))
		case 1:
			if err := m.a.Warm(ctx); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			qs := queries(m.a.Dataset())
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			same(step, m, qs[:1+rng.Intn(len(qs))])
		}

		builds := int64(cancels)
		if !cold {
			builds++
		}
		for _, i := range rng.Perm(len(members)) {
			m := members[i]
			if m.a.pool != root.pool || m.a.PoolBuilt() == cold || m.a.PoolBuilds() != builds {
				t.Fatalf("step %d: depth-%d member shares cell %v, built %v, %d pool builds; want shared, %v, %d",
					step, m.depth, m.a.pool == root.pool, m.a.PoolBuilt(), m.a.PoolBuilds(), !cold, builds)
			}
			if !cold {
				same(step, m, queries(m.a.Dataset()))
			}
		}
	}
}
