package stablerank

import (
	"maps"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// Metamorphic equivalence layer for the matrix-matrix sweep: the fused
// blocked sweep must be bit-equal to the historical per-normal reference
// (one CountInside pass per ranking over the whole pool) for every seed and
// worker count, and the adaptive rounds must equal per-ranking CountInside
// passes over each prefix the schedule ends at, for every worker count, and
// collapse to exactly the full-sweep answer when the pool runs out.

func testDataset(t *testing.T, seed int64, n, d int) *dataset.Dataset {
	t.Helper()
	rr := rand.New(rand.NewSource(seed))
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rr.Float64()
		}
		ds.MustAdd("", v...)
	}
	return ds
}

func testPool(t *testing.T, seed int64, rows, d int) vecmat.Matrix {
	t.Helper()
	s, err := sampling.NewUniform(d, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	m := vecmat.New(rows, d)
	for i := 0; i < rows; i++ {
		if err := s.SampleInto(m.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// poolAnalyzer returns an analyzer over ds, sized to pool and sharded over
// workers, whose pool cell already holds pool. In index mode the cell also
// holds a prebuilt index over pool, so every qualifying ranking is counted
// through it; in scan mode the cell's one index build is claimed and never
// runs, so every ranking is scanned.
func poolAnalyzer(t *testing.T, ds *dataset.Dataset, pool vecmat.Matrix, workers int, indexed bool, opts ...Option) *Analyzer {
	t.Helper()
	a, err := New(ds, append([]Option{WithSampleCount(pool.Rows()), WithWorkers(workers)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	st := a.pool.Load()
	st.once.Do(func() { st.samples = pool })
	st.built.Store(true)
	st.indexBuilds.Store(1)
	if indexed {
		st.index.Store(vecmat.BuildIndex(pool))
	}
	return a
}

// poolModes runs the sweep tests twice: scanning every ranking, and with
// every qualifying ranking counted through the pool's index.
var poolModes = []struct {
	name    string
	indexed bool
}{
	{"scan", false},
	{"index", true},
}

// doAll answers queries on a, failing the test on a call-level error.
func doAll(t *testing.T, a *Analyzer, queries []Query) []Result {
	t.Helper()
	out, err := a.Do(ctx, queries...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// verifyQueriesFor derives feasible rankings from random weight vectors so
// every query has a non-degenerate region.
func verifyQueriesFor(t *testing.T, ds *dataset.Dataset, seed int64, k int) []Query {
	t.Helper()
	s, err := sampling.NewUniform(ds.D(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 0, k)
	for i := 0; i < k; i++ {
		w, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, VerifyQuery{Ranking: rank.Compute(ds, w)})
	}
	return qs
}

// TestFusedSweepMatchesPerNormal pins the blocked fused sweep bit-equal to
// the per-normal reference — one whole-pool CountInside per ranking — across
// seeds, dimensions and worker counts.
func TestFusedSweepMatchesPerNormal(t *testing.T) {
	for _, d := range []int{3, 4, 7} {
		for _, seed := range []int64{1, 2, 3} {
			ds := testDataset(t, seed, 7, d)
			pool := testPool(t, seed+100, 20000, d)
			queries := verifyQueriesFor(t, ds, seed+200, 9)

			// Per-normal reference: the pre-blocking sweep shape.
			want := make([]float64, len(queries))
			for i, q := range queries {
				m, _, err := md.ConstraintMatrix(ds, q.(VerifyQuery).Ranking)
				if err != nil {
					t.Fatalf("d=%d seed=%d query %d: %v", d, seed, i, err)
				}
				want[i] = float64(m.CountInside(pool, 0, pool.Rows())) / float64(pool.Rows())
			}

			for _, mode := range poolModes {
				for _, workers := range []int{1, 2, 3, 8} {
					out := doAll(t, poolAnalyzer(t, ds, pool, workers, mode.indexed), queries)
					for i := range queries {
						v := out[i].Verification
						if v == nil {
							t.Fatalf("%s d=%d seed=%d workers=%d query %d: no verification (err %v)", mode.name, d, seed, workers, i, out[i].Err)
						}
						if v.Stability != want[i] {
							t.Fatalf("%s d=%d seed=%d workers=%d query %d: fused %v, per-normal %v",
								mode.name, d, seed, workers, i, v.Stability, want[i])
						}
						if v.SampleCount != pool.Rows() || v.Adaptive {
							t.Fatalf("exact sweep reported SampleCount=%d Adaptive=%v", v.SampleCount, v.Adaptive)
						}
					}
				}
			}
		}
	}
}

// TestFusedSweepMixedBatch: item-rank queries riding the same sweep are
// bit-identical across worker counts too.
func TestFusedSweepMixedBatch(t *testing.T) {
	ds := testDataset(t, 5, 6, 3)
	pool := testPool(t, 105, 12000, 3)
	queries := append(verifyQueriesFor(t, ds, 205, 4), ItemRankQuery{Item: 2}, ItemRankQuery{Item: 0, Samples: 5000})

	base := doAll(t, poolAnalyzer(t, ds, pool, 1, false), queries)
	for _, run := range []struct {
		indexed bool
		workers int
	}{{false, 2}, {false, 8}, {true, 1}, {true, 2}, {true, 8}} {
		workers := run.workers
		out := doAll(t, poolAnalyzer(t, ds, pool, workers, run.indexed), queries)
		for i := range queries {
			switch {
			case base[i].Verification != nil:
				if out[i].Verification.Stability != base[i].Verification.Stability {
					t.Fatalf("workers=%d query %d stability diverged", workers, i)
				}
			case base[i].RankDistribution != nil:
				got, want := out[i].RankDistribution, base[i].RankDistribution
				if got.Samples != want.Samples || got.Best != want.Best || got.Worst != want.Worst || len(got.Counts) != len(want.Counts) {
					t.Fatalf("workers=%d query %d rank distribution diverged", workers, i)
				}
				for r, c := range want.Counts {
					if got.Counts[r] != c {
						t.Fatalf("workers=%d query %d rank %d count %d, want %d", workers, i, r, got.Counts[r], c)
					}
				}
			}
		}
	}
}

// TestAdaptiveSweepDeterministic: for a fixed pool, adaptive answers equal
// a prefix oracle for every worker count, scanned or indexed. Per ranking,
// the oracle counts each prefix the round schedule ends at with its own
// CountInside and stops at the first whose Equation 10 half-width reaches
// the target while pool rows remain, or else answers from the whole pool.
// An item-rank query riding the same rounds keeps the exact sweep's
// histogram, and an adaptive sweep over a pool too small to clear the
// target reports exactly the exact sweep's answer with Adaptive = false.
func TestAdaptiveSweepDeterministic(t *testing.T) {
	ds := testDataset(t, 9, 7, 4)
	pool := testPool(t, 109, 60000, 4)
	rows := pool.Rows()
	verifies := verifyQueriesFor(t, ds, 209, 6)
	queries := append(verifies, ItemRankQuery{Item: 1, Samples: 50000})
	item := len(verifies)
	alpha := poolAnalyzer(t, ds, pool, 1, false).alpha

	oracle := func(target float64) []Verification {
		want := make([]Verification, len(verifies))
		for i, q := range verifies {
			m, _, err := md.ConstraintMatrix(ds, q.(VerifyQuery).Ranking)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			est := float64(m.CountInside(pool, 0, rows)) / float64(rows)
			want[i] = Verification{Stability: est, ConfidenceError: confidenceOf(est, rows, alpha), SampleCount: rows}
			for pos, chunk := 0, adaptiveChunkMin; pos < rows; chunk = min(2*chunk, adaptiveChunkMax) {
				pos = min(pos+chunk, rows)
				est := float64(m.CountInside(pool, 0, pos)) / float64(pos)
				if ci := confidenceOf(est, pos, alpha); ci <= target && pos < rows {
					want[i] = Verification{Stability: est, ConfidenceError: ci, SampleCount: pos, Adaptive: true}
					break
				}
			}
		}
		return want
	}

	exact := doAll(t, poolAnalyzer(t, ds, pool, 3, false), queries)
	for _, target := range []float64{0.02, 0.01, 0.005} {
		want := oracle(target)
		stopped := 0
		for _, w := range want {
			if w.Adaptive {
				stopped++
			}
		}
		if target == 0.02 && stopped == 0 {
			t.Fatal("no query stopped early at a loose target on a 60k pool")
		}
		for _, mode := range poolModes {
			for _, workers := range []int{1, 2, 3, 8} {
				out := doAll(t, poolAnalyzer(t, ds, pool, workers, mode.indexed, WithAdaptive(target)), queries)
				for i, w := range want {
					g := out[i].Verification
					if g == nil {
						t.Fatalf("%s target=%v workers=%d query %d: %v", mode.name, target, workers, i, out[i].Err)
					}
					if g.Stability != w.Stability || g.ConfidenceError != w.ConfidenceError || g.SampleCount != w.SampleCount || g.Adaptive != w.Adaptive {
						t.Fatalf("%s target=%v workers=%d query %d: adaptive answer %+v, prefix oracle %+v", mode.name, target, workers, i, *g, w)
					}
				}
				got, exp := out[item].RankDistribution, exact[item].RankDistribution
				if got == nil || got.Samples != exp.Samples || got.Best != exp.Best || got.Worst != exp.Worst || !maps.Equal(got.Counts, exp.Counts) {
					t.Fatalf("%s target=%v workers=%d: item-rank histogram %+v, exact sweep %+v", mode.name, target, workers, got, exp)
				}
			}
		}
	}

	// An unreachable target must fall through to the exact full-pool answer.
	strict := doAll(t, poolAnalyzer(t, ds, pool, 3, false, WithAdaptive(1e-12)), queries)
	for i := range verifies {
		g, w := strict[i].Verification, exact[i].Verification
		if g.Adaptive || g.SampleCount != rows || g.Stability != w.Stability || g.ConfidenceError != w.ConfidenceError {
			t.Fatalf("query %d: exhausted adaptive sweep != exact sweep (%+v vs %+v)", i, g, w)
		}
	}
}

// TestItemRankMatchesRankOf: one Do holding three item-rank queries with
// different sample counts — the whole pool and a pool prefix on the fused
// sweep, and more samples than the pool on the analyzer's own item-rank
// sampler stream — gives histograms equal to a per-row mc.RankOf loop over
// the same weight vectors, for 1, 2 and 8 workers. Small-integer attributes
// make duplicate items, so the tie rule is exercised.
func TestItemRankMatchesRankOf(t *testing.T) {
	const poolRows = 10000
	for _, d := range []int{3, 4} {
		rr := rand.New(rand.NewSource(int64(d)))
		ds := dataset.MustNew(d)
		for i := 0; i < 60; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = float64(rr.Intn(3))
			}
			ds.MustAdd("", v...)
		}
		attrs := vecmat.New(ds.N(), d)
		for i := 0; i < ds.N(); i++ {
			attrs.SetRow(i, ds.Attrs(i))
		}
		pool := testPool(t, 300+int64(d), poolRows, d)
		queries := []Query{
			ItemRankQuery{Item: 3},
			ItemRankQuery{Item: 7, Samples: 2500},
			ItemRankQuery{Item: 3, Samples: poolRows + 1500},
		}
		want := make([]map[int]int, len(queries))
		for qi, q := range queries {
			q := q.(ItemRankQuery)
			want[qi] = map[int]int{}
			if q.Samples <= poolRows {
				n := q.Samples
				if n == 0 {
					n = poolRows
				}
				for r := 0; r < n; r++ {
					want[qi][mc.RankOf(attrs, pool.Row(r), q.Item)]++
				}
				continue
			}
			s, err := poolAnalyzer(t, ds, pool, 1, false).sampler(itemRankSeedOffset)
			if err != nil {
				t.Fatal(err)
			}
			w := make([]float64, d)
			for r := 0; r < q.Samples; r++ {
				if err := s.(sampling.IntoSampler).SampleInto(w); err != nil {
					t.Fatal(err)
				}
				want[qi][mc.RankOf(attrs, w, q.Item)]++
			}
		}
		for _, mode := range poolModes {
			for _, workers := range []int{1, 2, 8} {
				out := doAll(t, poolAnalyzer(t, ds, pool, workers, mode.indexed), queries)
				for qi := range queries {
					got := out[qi].RankDistribution
					if got == nil {
						t.Fatalf("%s d=%d workers=%d query %d: no distribution (err %v)", mode.name, d, workers, qi, out[qi].Err)
					}
					if !maps.Equal(got.Counts, want[qi]) {
						t.Fatalf("%s d=%d workers=%d query %d: histogram %v, RankOf loop %v", mode.name, d, workers, qi, got.Counts, want[qi])
					}
				}
			}
		}
	}
}
