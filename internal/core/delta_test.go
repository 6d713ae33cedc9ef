package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
)

func deltaDS(t *testing.T, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		attrs := make(geom.Vector, d)
		for j := range attrs {
			// A coarse grid makes score ties common, exercising the re-sort
			// fallback.
			attrs[j] = float64(rng.Intn(5))
		}
		if err := ds.Add(fmt.Sprintf("i%d", i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestApplyDeltaSharesPool pins the headline property: the mutated analyzer
// inherits the built pool (zero new builds) and its spliced baseline matches
// a from-scratch rebuild bit for bit.
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
	if na.DeltaSplices()+na.DeltaResorts() != 3 {
		t.Fatalf("splices %d + resorts %d != 3", na.DeltaSplices(), na.DeltaResorts())
	}

	nds, err := dataset.ApplyDeltas(ds, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(nds, WithSampleCount(2000), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !na.Baseline().Equal(fresh.Baseline()) || na.BaselineKey() != fresh.BaselineKey() {
		t.Fatal("spliced baseline differs from rebuild")
	}
	// Query results must match the rebuild bitwise: same pool, same dataset.
	r := RankingOf(nds, equalWeights(3))
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
	if na.PoolBuilds() != 1 {
		t.Fatalf("PoolBuilds = %d", na.PoolBuilds())
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

// TestLastDriftRetriesAfterCancel: a context cancelled during the drift
// score pass must not be latched into the delta record — the same caller's
// next LastDrift with a live context gets the real statistics.
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
