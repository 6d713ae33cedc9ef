package stablerank

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stablerank/internal/datagen"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/sampling"
)

// The pool's kd-tree index is built by the build rule and then counts every
// qualifying verify: these tests pin that answers never change across the
// build, that the build happens once per pool cell however many sweeps or
// analyzers share it, and that pools whose rankings do not qualify never
// build one.

// indexBatch draws k verify queries in the cosine cone around FIFA's
// weights plus one item-rank query, the verify workload's request shape.
func indexBatch(t *testing.T, ds *dataset.Dataset, cone geom.Region, k int, seed int64) []Query {
	t.Helper()
	s, err := sampling.ForRegion(cone, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 0, k+1)
	for len(qs) < k {
		w, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, VerifyQuery{Ranking: RankingOf(ds, w)})
	}
	return append(qs, ItemRankQuery{Item: 3, Samples: 1500})
}

func fifaAnalyzer(t *testing.T, workers int) (*Analyzer, []Query) {
	t.Helper()
	ds := datagen.FIFA(rand.New(rand.NewSource(11)), 60)
	ref := datagen.FIFAReferenceWeights()
	a, err := New(ds, WithCosineSimilarity(ref, 0.99), WithSampleCount(20_000), WithSeed(5), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return a, indexBatch(t, ds, a.Region(), 12, 17)
}

func do(t *testing.T, a *Analyzer, qs []Query) []Result {
	t.Helper()
	res, err := a.Do(ctx, qs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("query %d: %v", i, res[i].Err)
		}
	}
	return res
}

// TestDoSameAcrossIndexBuild: Do answers bit-identically before the index
// exists, on the call that builds it, and after, for 1, 2 and 8 workers;
// the build waits for the call that brings the qualifying passes to
// indexAfterPasses, and the index's bytes join PoolMemoryBytes.
func TestDoSameAcrossIndexBuild(t *testing.T) {
	var want []Result
	for _, workers := range []int{1, 2, 8} {
		a, qs := fifaAnalyzer(t, workers)
		verifies := int64(len(qs) - 1)
		first := do(t, a, qs)
		if want == nil {
			want = first
		} else if !reflect.DeepEqual(first, want) {
			t.Fatalf("workers=%d: answers differ from workers=1", workers)
		}
		st := a.pool.Load()
		poolBytes := a.PoolMemoryBytes()
		calls := 1
		for st.index.Load() == nil {
			if calls > indexAfterPasses {
				t.Fatalf("workers=%d: %d passes served and no index", workers, st.passes.Load())
			}
			if got := do(t, a, qs); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d call %d: answers changed", workers, calls+1)
			}
			calls++
		}
		if wantCalls := int((indexAfterPasses + verifies - 1) / verifies); calls != wantCalls {
			t.Fatalf("workers=%d: index built on call %d, want %d", workers, calls, wantCalls)
		}
		for i := 0; i < 2; i++ {
			if got := do(t, a, qs); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: answers changed after the index was built", workers)
			}
		}
		ix := st.index.Load()
		if got := a.PoolMemoryBytes(); got != poolBytes+ix.Bytes() {
			t.Fatalf("workers=%d: PoolMemoryBytes %d, want pool %d + index %d", workers, got, poolBytes, ix.Bytes())
		}
		if st.indexBuilds.Load() != 1 {
			t.Fatalf("workers=%d: %d index builds", workers, st.indexBuilds.Load())
		}
	}
}

// TestApplyDeltaReusesIndex: the passes an analyzer served count toward
// the build on its ApplyDelta successors, and an index built by one is used
// by the others with no second build.
func TestApplyDeltaReusesIndex(t *testing.T) {
	a, qs := fifaAnalyzer(t, 2)
	do(t, a, qs)
	st := a.pool.Load()
	b, err := a.ApplyDelta(ctx, Delta{Op: AttrUpdate, ID: a.Dataset().Item(4).ID, Attrs: geom.NewVector(90, 80, 70, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if b.pool.Load() != st {
		t.Fatal("ApplyDelta did not share the pool cell")
	}
	bq := indexBatch(t, b.Dataset(), b.Region(), 12, 19)
	for st.index.Load() == nil {
		do(t, b, bq)
	}
	ix := st.index.Load()
	c, err := b.ApplyDelta(ctx, Delta{Op: ItemRemove, ID: b.Dataset().Item(7).ID})
	if err != nil {
		t.Fatal(err)
	}
	cq := indexBatch(t, c.Dataset(), c.Region(), 12, 23)
	before := st.passes.Load()
	do(t, c, cq)
	do(t, a, qs)
	if c.pool.Load() != st || st.index.Load() != ix || st.indexBuilds.Load() != 1 {
		t.Fatalf("index rebuilt: builds %d, same index %v", st.indexBuilds.Load(), st.index.Load() == ix)
	}
	if st.passes.Load() != before {
		t.Fatalf("passes counted after the build: %d -> %d", before, st.passes.Load())
	}
	if a.PoolMemoryBytes() != c.PoolMemoryBytes() {
		t.Fatalf("sharing analyzers report pool bytes %d and %d", a.PoolMemoryBytes(), c.PoolMemoryBytes())
	}
}

// TestIndexBuildOnceConcurrent: eight goroutines whose sweeps all find the
// build rule met claim the build together; exactly one builds, the others
// scan meanwhile, and every answer equals the unindexed one. Run under
// -race -count=10.
func TestIndexBuildOnceConcurrent(t *testing.T) {
	a, qs := fifaAnalyzer(t, 2)
	want := do(t, a, qs)
	st := a.pool.Load()
	if st.index.Load() != nil {
		t.Fatal("index built by the first call")
	}
	st.passes.Store(indexAfterPasses)
	const goroutines = 8
	got := make([][]Result, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			res, err := a.Do(ctx, qs...)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = res
		}(g)
	}
	close(start)
	wg.Wait()
	if n := st.indexBuilds.Load(); n != 1 || st.index.Load() == nil {
		t.Fatalf("%d index builds, index present %v; want exactly one", n, st.index.Load() != nil)
	}
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d: answers differ from the unindexed call", g)
		}
	}
}

// TestShallowPoolNeverIndexed: at churn's shape — 1000 items over a
// 4096-row pool, about 4 rows per constraint — no ranking qualifies, so no
// pass is counted, no index is built and the pool's bytes do not grow.
func TestShallowPoolNeverIndexed(t *testing.T) {
	ds := datagen.Independent(rand.New(rand.NewSource(13)), 1000, 4)
	a, err := New(ds, WithSampleCount(4096), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	q := VerifyQuery{Ranking: RankingOf(ds, []float64{1, 2, 3, 4})}
	do(t, a, []Query{q})
	bytes := a.PoolMemoryBytes()
	for i := 0; i < 2*indexAfterPasses; i++ {
		do(t, a, []Query{q})
	}
	st := a.pool.Load()
	if st.passes.Load() != 0 || st.index.Load() != nil || a.PoolMemoryBytes() != bytes {
		t.Fatalf("passes %d, index %v, pool bytes %d -> %d", st.passes.Load(), st.index.Load() != nil, bytes, a.PoolMemoryBytes())
	}
}
