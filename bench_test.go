// Benchmarks regenerating the paper's evaluation (Figures 7-21) at
// testing.B scale, one benchmark (or family) per figure, plus cmd/benchfig's
// three design ablations. cmd/benchfig runs the same experiments at full size
// with narrative output; these benches keep per-iteration cost low enough
// for `go test -bench=. -benchmem`.
package stablerank_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stablerank"

	"stablerank/internal/datagen"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/lp"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/store"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

const benchSeed = 42

func benchDiamonds(n, d int) *dataset.Dataset {
	ds := datagen.Diamonds(rand.New(rand.NewSource(benchSeed)), n)
	p, err := ds.Project(d)
	if err != nil {
		panic(err)
	}
	return p
}

func benchEqual(d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = 1
	}
	return w
}

func benchPool(roi geom.Region, n int, seed int64) vecmat.Matrix {
	s, err := sampling.ForRegion(roi, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	pool := vecmat.New(n, roi.Dim())
	for i := 0; i < n; i++ {
		if err := sampling.Into(s, pool.Row(i)); err != nil {
			panic(err)
		}
	}
	return pool
}

// BenchmarkFig07CSMetricsEnumerateAll: full exact enumeration of every
// ranking of the simulated CSMetrics top-100 (the Figure 7 distribution).
func BenchmarkFig07CSMetricsEnumerateAll(b *testing.B) {
	ds := datagen.CSMetrics(rand.New(rand.NewSource(benchSeed)), 100)
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twod.EnumerateAll(ds, full); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08CSMetricsConeEnumerate: the same enumeration restricted to
// 0.998 cosine similarity around the reference weights (Figure 8). Each
// iteration builds its own analyzer (cheap in 2D, where no pool is drawn),
// so it times the ray sweep, not a replay of an analyzer's enumeration
// memo.
func BenchmarkFig08CSMetricsConeEnumerate(b *testing.B) {
	ds := datagen.CSMetrics(rand.New(rand.NewSource(benchSeed)), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := stablerank.New(ds, stablerank.WithCosineSimilarity(datagen.CSMetricsReferenceWeights(), 0.998))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.TopH(ctx, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09FIFAGetNextMD: top-10 stable rankings of the simulated FIFA
// table in the 0.999-cosine cone via delayed arrangement (Figure 9 uses 100
// GET-NEXT calls; 10 keeps iterations short with the same code path).
func BenchmarkFig09FIFAGetNextMD(b *testing.B) {
	ds := datagen.FIFA(rand.New(rand.NewSource(benchSeed)), 100)
	cone, err := geom.NewConeFromCosine(geom.NewVector(datagen.FIFAReferenceWeights()...), 0.999)
	if err != nil {
		b.Fatal(err)
	}
	pool := benchPool(cone, 10000, benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		own := pool.Clone()
		b.StartTimer()
		engine, err := md.NewEngineMatrix(ds, cone, own, md.SamplePartition)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := md.TopH(ctx, engine, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SV2D: exact 2D stability verification vs n (Figure 10; the
// paper reports linear time, 0.12 s at n=100k in Python).
func BenchmarkFig10SV2D(b *testing.B) {
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDiamonds(n, 2)
			r := stablerank.RankingOf(ds, []float64{1, 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := twod.Verify(ds, r, full); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11GetNext2D: the first GET-NEXT2D call (ray sweep) and
// subsequent calls vs n (Figure 11). The simulated catalog is
// anti-correlated in its first two attributes — the Theta(n^2)-exchange
// worst case — so the sweep tier stops at n=5000.
func BenchmarkFig11GetNext2D(b *testing.B) {
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("first/n=%d", n), func(b *testing.B) {
			ds := benchDiamonds(n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := twod.NewEnumerator(ds, full)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("next/n=%d", n), func(b *testing.B) {
			ds := benchDiamonds(n, 2)
			e, err := twod.NewEnumerator(ds, full)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Next(); errors.Is(err, twod.ErrExhausted) {
					b.StopTimer()
					e, err = twod.NewEnumerator(ds, full)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				} else if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12SVMD: multi-dimensional stability verification (SV +
// Monte-Carlo oracle) vs n at d=3 (Figure 12; the paper uses 1M samples,
// here 100k keeps iterations ~1 s at n=10k with identical scaling).
func BenchmarkFig12SVMD(b *testing.B) {
	pool := benchPool(geom.FullSpace{D: 3}, 100000, benchSeed)
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDiamonds(n, 3)
			r := stablerank.RankingOf(ds, benchEqual(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := md.VerifyMatrix(ctx, ds, r, pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mdTopTen runs engine construction plus ten GET-NEXT calls, the unit of
// Figures 13-15.
func mdTopTen(b *testing.B, ds *dataset.Dataset, cone geom.Cone, pool vecmat.Matrix) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		own := pool.Clone()
		b.StartTimer()
		engine, err := md.NewEngineMatrix(ds, cone, own, md.SamplePartition)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := md.TopH(ctx, engine, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13GetNextMD: GET-NEXTmd top-10 vs n (Figure 13).
func BenchmarkFig13GetNextMD(b *testing.B) {
	cone, err := geom.NewCone(geom.NewVector(benchEqual(3)...), math.Pi/100)
	if err != nil {
		b.Fatal(err)
	}
	pool := benchPool(cone, 20000, benchSeed)
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mdTopTen(b, benchDiamonds(n, 3), cone, pool)
		})
	}
}

// BenchmarkFig14GetNextMD: GET-NEXTmd top-10 vs d (Figure 14).
func BenchmarkFig14GetNextMD(b *testing.B) {
	for _, d := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			cone, err := geom.NewCone(geom.NewVector(benchEqual(d)...), math.Pi/100)
			if err != nil {
				b.Fatal(err)
			}
			pool := benchPool(cone, 20000, benchSeed)
			mdTopTen(b, benchDiamonds(100, d), cone, pool)
		})
	}
}

// BenchmarkFig15GetNextMD: GET-NEXTmd top-10 vs region width theta
// (Figure 15).
func BenchmarkFig15GetNextMD(b *testing.B) {
	for _, th := range []struct {
		name  string
		theta float64
	}{{"pi10", math.Pi / 10}, {"pi50", math.Pi / 50}, {"pi100", math.Pi / 100}} {
		b.Run("theta="+th.name, func(b *testing.B) {
			cone, err := geom.NewCone(geom.NewVector(benchEqual(3)...), th.theta)
			if err != nil {
				b.Fatal(err)
			}
			pool := benchPool(cone, 20000, benchSeed)
			mdTopTen(b, benchDiamonds(100, 3), cone, pool)
		})
	}
}

// randomizedFirstCall builds the operator and performs the 5,000-sample
// first GET-NEXTr call, the unit of Figures 16, 18 and 19.
func randomizedFirstCall(b *testing.B, ds *dataset.Dataset, mode mc.Mode, k int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := stablerank.New(ds,
			stablerank.WithCone(benchEqual(ds.D()), math.Pi/50),
			stablerank.WithSeed(benchSeed+int64(i)),
		)
		if err != nil {
			b.Fatal(err)
		}
		op, err := a.Randomized(mode, k)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := op.NextFixedBudget(ctx, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16RandomizedFirstCall: first GET-NEXTr call vs n, ranked
// top-10 (Figure 16).
func BenchmarkFig16RandomizedFirstCall(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			randomizedFirstCall(b, benchDiamonds(n, 3), mc.TopKRanked, 10)
		})
	}
}

// BenchmarkFig17TopKSemantics: top-10 stable partial rankings under set vs
// ranked semantics (Figure 17's series).
func BenchmarkFig17TopKSemantics(b *testing.B) {
	ds := benchDiamonds(10000, 3)
	for _, m := range []struct {
		name string
		mode mc.Mode
	}{{"set", mc.TopKSet}, {"ranked", mc.TopKRanked}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := stablerank.New(ds,
					stablerank.WithCone(benchEqual(3), math.Pi/50),
					stablerank.WithSeed(benchSeed+int64(i)),
				)
				if err != nil {
					b.Fatal(err)
				}
				op, err := a.Randomized(m.mode, 10)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := op.TopH(ctx, 10, 5000, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig18FlightsScale: the DoT scalability sweep (Figure 18). The
// full 1M tier runs in cmd/benchfig; the bench stops at 100k to keep
// `go test -bench` wall time sane while exercising the identical code path.
func BenchmarkFig18FlightsScale(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := datagen.Flights(rand.New(rand.NewSource(benchSeed)), n)
			randomizedFirstCall(b, ds, mc.TopKSet, 10)
		})
	}
}

// BenchmarkFig19RandomizedByD: first GET-NEXTr call vs d at n=10k
// (Figure 19).
func BenchmarkFig19RandomizedByD(b *testing.B) {
	for _, d := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			randomizedFirstCall(b, benchDiamonds(10000, d), mc.TopKRanked, 10)
		})
	}
}

// BenchmarkFig20TopKByD: top-10 partial rankings vs d under both semantics
// (Figure 20's series).
func BenchmarkFig20TopKByD(b *testing.B) {
	for _, d := range []int{3, 4, 5} {
		for _, m := range []struct {
			name string
			mode mc.Mode
		}{{"set", mc.TopKSet}, {"ranked", mc.TopKRanked}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, m.name), func(b *testing.B) {
				ds := benchDiamonds(10000, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a, err := stablerank.New(ds,
						stablerank.WithCone(benchEqual(d), math.Pi/50),
						stablerank.WithSeed(benchSeed+int64(i)),
					)
					if err != nil {
						b.Fatal(err)
					}
					op, err := a.Randomized(m.mode, 10)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := op.TopH(ctx, 10, 5000, 1000); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig21Correlation: top-10 stable top-k sets over the synthetic
// correlation workloads (Figure 21; theta=pi/10 as in cmd/benchfig — see
// the fig21 comment there).
func BenchmarkFig21Correlation(b *testing.B) {
	for _, kind := range []datagen.CorrelationKind{
		datagen.KindAntiCorrelated, datagen.KindIndependent, datagen.KindCorrelated,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			ds := datagen.Synthetic(rand.New(rand.NewSource(benchSeed)), kind, 10000, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := stablerank.New(ds,
					stablerank.WithCone(benchEqual(3), math.Pi/10),
					stablerank.WithSeed(benchSeed+int64(i)),
				)
				if err != nil {
					b.Fatal(err)
				}
				op, err := a.Randomized(mc.TopKSet, 10)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := op.TopH(ctx, 10, 5000, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPassThrough: sample-partition vs exact-LP intersection
// testing inside GET-NEXTmd (Section 5.4 vs Section 4.2).
func BenchmarkAblationPassThrough(b *testing.B) {
	ds := benchDiamonds(60, 3)
	cone, err := geom.NewCone(geom.NewVector(benchEqual(3)...), math.Pi/20)
	if err != nil {
		b.Fatal(err)
	}
	pool := benchPool(cone, 20000, benchSeed)
	for _, m := range []struct {
		name string
		mode md.IntersectionMode
	}{{"sample-partition", md.SamplePartition}, {"lp-exact", md.LPExact}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				own := pool.Clone()
				b.StartTimer()
				engine, err := md.NewEngineMatrix(ds, cone, own, m.mode)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := md.TopH(ctx, engine, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCapSampling: inverse-CDF cap sampling vs
// acceptance-rejection from U at narrow and wide regions (Section 5.2).
func BenchmarkAblationCapSampling(b *testing.B) {
	d := 4
	for _, th := range []struct {
		name  string
		theta float64
	}{{"wide-pi4", math.Pi / 4}, {"narrow-pi100", math.Pi / 100}} {
		cone, err := geom.NewCone(geom.NewVector(benchEqual(d)...), th.theta)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("inverse-cdf/"+th.name, func(b *testing.B) {
			s, err := sampling.NewCap(cone, rand.New(rand.NewSource(benchSeed)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("rejection/"+th.name, func(b *testing.B) {
			u, err := sampling.NewUniform(d, rand.New(rand.NewSource(benchSeed)))
			if err != nil {
				b.Fatal(err)
			}
			s, err := sampling.NewRejection(u, cone, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDelayedVsFull: time-to-first-ranking under the delayed
// arrangement vs full construction (the Section 4.2 argument).
func BenchmarkAblationDelayedVsFull(b *testing.B) {
	ds := benchDiamonds(40, 3)
	cone, err := geom.NewCone(geom.NewVector(benchEqual(3)...), math.Pi/20)
	if err != nil {
		b.Fatal(err)
	}
	pool := benchPool(cone, 20000, benchSeed)
	b.Run("delayed-first", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			own := pool.Clone()
			b.StartTimer()
			engine, err := md.NewEngineMatrix(ds, cone, own, md.SamplePartition)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Next(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-arrangement", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			own := pool.Clone()
			b.StartTimer()
			if _, err := md.FullArrangement(ctx, ds, cone, own, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreRanking: the hot inner loop shared by every operator —
// ranking n items for one weight vector, full sort vs top-k selection.
func BenchmarkCoreRanking(b *testing.B) {
	ds := benchDiamonds(100000, 3)
	w := geom.NewVector(benchEqual(3)...)
	b.Run("full-sort", func(b *testing.B) {
		c := rank.NewComputer(ds)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Compute(w)
		}
	})
	b.Run("topk-select", func(b *testing.B) {
		c := rank.NewComputer(ds)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.TopKSelect(w, 10)
		}
	})
}

// BenchmarkPoolBuild: the Monte-Carlo sample-pool build that dominates
// analyzer startup — the sequential baseline (workers=1) vs a 4-way shard
// (the CI runner's core count; on fewer cores the 4-way tier degrades to the
// sequential time plus scheduling noise). The deterministic chunk seeding
// makes the pools bit-identical, so this is a pure wall-clock comparison of
// the same work. Fixed worker tiers keep the benchmark names machine-
// independent for the perf gate.
func BenchmarkPoolBuild(b *testing.B) {
	cone, err := geom.NewCone(geom.NewVector(benchEqual(4)...), math.Pi/50)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(cone, benchSeed), 100000, 4, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad: the two ways an analyzer obtains its Monte-Carlo
// pool now that stablerankd persists pool snapshots — cold (draw 100k
// samples from the region) vs warm (decode and checksum-verify the persisted
// snapshot). The pools are bit-identical either way; the gap is the
// wall-clock a warm restart saves per analyzer.
func BenchmarkSnapshotLoad(b *testing.B) {
	cone, err := geom.NewCone(geom.NewVector(benchEqual(4)...), math.Pi/50)
	if err != nil {
		b.Fatal(err)
	}
	const n, d = 100000, 4
	pool, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(cone, benchSeed), n, d, 0)
	if err != nil {
		b.Fatal(err)
	}
	snap := store.EncodeSnapshot(pool)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(cone, benchSeed), n, d, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := store.DecodeSnapshot(snap)
			if err != nil || m.Rows() != n {
				b.Fatalf("decode: %v (rows %d)", err, m.Rows())
			}
		}
	})
}

// BenchmarkVerifyBatch: verifying 16 candidate rankings against a 100k
// sample pool — one VerifyStability call per ranking vs a single Do call
// whose constraint tests are fused into one sweep.
func BenchmarkVerifyBatch(b *testing.B) {
	ds := benchDiamonds(1000, 3)
	rankings := make([]rank.Ranking, 16)
	queries := make([]stablerank.Query, len(rankings))
	for i := range rankings {
		w := []float64{1, 1 + float64(i)*0.05, 1 - float64(i)*0.03}
		rankings[i] = stablerank.RankingOf(ds, w)
		queries[i] = stablerank.VerifyQuery{Ranking: rankings[i]}
	}
	newAnalyzer := func(b *testing.B) *stablerank.Analyzer {
		a, err := stablerank.New(ds, stablerank.WithSeed(benchSeed), stablerank.WithSampleCount(100000))
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	b.Run("loop", func(b *testing.B) {
		a := newAnalyzer(b)
		if _, err := a.VerifyStability(ctx, rankings[0]); err != nil {
			b.Fatal(err) // pool built outside the timed region
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range rankings {
				if _, err := a.VerifyStability(ctx, r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		a := newAnalyzer(b)
		if _, err := a.VerifyStability(ctx, rankings[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := a.Do(ctx, queries...)
			if err != nil {
				b.Fatal(err)
			}
			for j := range out {
				if out[j].Err != nil {
					b.Fatal(out[j].Err)
				}
			}
		}
	})
}

// BenchmarkQueryFused: a heterogeneous query batch — 32 verifies plus 2
// item-rank distributions against a 400k sample pool — issued as one
// Analyzer.Do plan (one fused pool sweep) vs one Do call per query (one
// sweep each). The arithmetic is identical either way; the fused plan wins
// on pool memory traffic, reading the 400k x 4 matrix once per batch
// instead of once per query (~1.6x here), and results are bit-identical by
// construction.
func BenchmarkQueryFused(b *testing.B) {
	rr := rand.New(rand.NewSource(benchSeed))
	ds := dataset.MustNew(4)
	for i := 0; i < 6; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64(), rr.Float64())
	}
	queries := make([]stablerank.Query, 0, 34)
	for i := 0; i < 32; i++ {
		w := []float64{1, 1 + float64(i)*0.07, 1 - float64(i)*0.02, 1 + float64(i)*0.03}
		queries = append(queries, stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, w)})
	}
	for item := 0; item < 2; item++ {
		queries = append(queries, stablerank.ItemRankQuery{Item: item, Samples: 20000})
	}
	newAnalyzer := func(b *testing.B) *stablerank.Analyzer {
		a, err := stablerank.New(ds, stablerank.WithSeed(benchSeed), stablerank.WithSampleCount(400000))
		if err != nil {
			b.Fatal(err)
		}
		// Build the pool outside the timed region.
		if _, err := a.Do(ctx, queries[0]); err != nil {
			b.Fatal(err)
		}
		return a
	}
	check := func(b *testing.B, results []stablerank.Result) {
		b.Helper()
		for i := range results {
			if results[i].Err != nil {
				b.Fatal(results[i].Err)
			}
		}
	}
	b.Run("percall", func(b *testing.B) {
		a := newAnalyzer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				res, err := a.Do(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				check(b, res)
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		a := newAnalyzer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := a.Do(ctx, queries...)
			if err != nil {
				b.Fatal(err)
			}
			check(b, res)
		}
	})
}

// BenchmarkQueryAdaptive: the same 32-verify batch against a 400k sample
// pool, exact vs adaptive verification (target error 0.02). The adaptive
// sweep consults the confidence interval at chunk boundaries and retires
// each verify as soon as its interval clears the target, so it reads a
// short prefix of the pool instead of all of it. The rows/op metric is the
// pool rows actually swept per batch (summed over queries) — the acceptance
// bar is adaptive sweeping at least 2x fewer rows than exact.
func BenchmarkQueryAdaptive(b *testing.B) {
	rr := rand.New(rand.NewSource(benchSeed))
	ds := dataset.MustNew(4)
	for i := 0; i < 6; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64(), rr.Float64())
	}
	queries := make([]stablerank.Query, 0, 32)
	for i := 0; i < 32; i++ {
		w := []float64{1, 1 + float64(i)*0.07, 1 - float64(i)*0.02, 1 + float64(i)*0.03}
		queries = append(queries, stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, w)})
	}
	run := func(b *testing.B, extra ...stablerank.Option) {
		opts := append([]stablerank.Option{
			stablerank.WithSeed(benchSeed),
			stablerank.WithSampleCount(400000),
		}, extra...)
		a, err := stablerank.New(ds, opts...)
		if err != nil {
			b.Fatal(err)
		}
		// Build the pool outside the timed region.
		if _, err := a.Do(ctx, queries[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var rows int64
		for i := 0; i < b.N; i++ {
			res, err := a.Do(ctx, queries...)
			if err != nil {
				b.Fatal(err)
			}
			for j := range res {
				if res[j].Err != nil {
					b.Fatal(res[j].Err)
				}
				rows += int64(res[j].Verification.SampleCount)
			}
		}
		b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	}
	b.Run("exact", func(b *testing.B) { run(b) })
	b.Run("adaptive", func(b *testing.B) { run(b, stablerank.WithAdaptive(0.02)) })
}

// BenchmarkQueryEnumerate: Do(TopHQuery{H: 10}) on the simulated FIFA table
// (100 items) in the 0.999-cosine cone over a 20k pool, the shape of the
// enumerate workload's d = 4 requests. cold asks a fresh analyzer each
// iteration, its pool drawn outside the timer, so it times GET-NEXTmd: the
// pool clone, the exchange hyperplanes and the arrangement refinement. warm
// asks one analyzer every iteration, so it times a replay of the
// analyzer's enumeration memo: ten deep copies.
func BenchmarkQueryEnumerate(b *testing.B) {
	ds := datagen.FIFA(rand.New(rand.NewSource(benchSeed)), 100)
	ref := datagen.FIFAReferenceWeights()
	newAnalyzer := func(b *testing.B) *stablerank.Analyzer {
		a, err := stablerank.New(ds, stablerank.WithSeed(benchSeed), stablerank.WithSampleCount(20000),
			stablerank.WithCosineSimilarity(ref, 0.999))
		if err != nil {
			b.Fatal(err)
		}
		// A verify query draws the pool and leaves the memo empty.
		if _, err := a.VerifyStability(ctx, stablerank.RankingOf(ds, ref)); err != nil {
			b.Fatal(err)
		}
		return a
	}
	topH := func(b *testing.B, a *stablerank.Analyzer) {
		res, err := a.Do(ctx, stablerank.TopHQuery{H: 10})
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Err != nil || len(res[0].Stables) != 10 {
			b.Fatalf("top-10: %d rankings, %v", len(res[0].Stables), res[0].Err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := newAnalyzer(b)
			b.StartTimer()
			topH(b, a)
		}
	})
	b.Run("warm", func(b *testing.B) {
		a := newAnalyzer(b)
		topH(b, a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			topH(b, a)
		}
	})
}

// Kernel benchmarks: the flat vecmat hot loops in isolation, sized so one
// iteration clears the perf gate's noise floor (GATEMIN) at -benchtime 1x.
// These are the primitives every operator above reduces to; a regression
// here regresses everything, so the CI gate matches them by the "Kernel"
// prefix.

// benchMatrix fills an n x d matrix with region-of-interest samples.
func benchMatrix(b *testing.B, n, d int) vecmat.Matrix {
	b.Helper()
	s, err := sampling.NewUniform(d, rand.New(rand.NewSource(benchSeed)))
	if err != nil {
		b.Fatal(err)
	}
	m := vecmat.New(n, d)
	for i := 0; i < n; i++ {
		if err := s.SampleInto(m.Row(i)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkKernelEvalRows: batched hyperplane·row sweeps — the raw memory
// bandwidth ceiling of every partition and oracle pass.
func BenchmarkKernelEvalRows(b *testing.B) {
	const n, d, normals = 100_000, 4, 32
	m := benchMatrix(b, n, d)
	nm := benchMatrix(b, normals, d)
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < normals; j++ {
			m.EvalRows(nm.Row(j), 0, n, out)
		}
	}
}

// BenchmarkKernelEvalRowsBlocked: the matrix-matrix form of the hyperplane
// sweep — all 32 normals evaluated in one pass over the pool (each row's
// components hoisted once) vs 32 repeated EvalRows passes. Same arithmetic,
// bit-identical outputs; the blocked layout reads the pool matrix once per
// batch instead of once per normal.
func BenchmarkKernelEvalRowsBlocked(b *testing.B) {
	const n, d, normals = 100_000, 4, 32
	m := benchMatrix(b, n, d)
	nm := benchMatrix(b, normals, d)
	b.Run("repeated", func(b *testing.B) {
		out := make([]float64, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < normals; j++ {
				m.EvalRows(nm.Row(j), 0, n, out)
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		out := make([]float64, n*normals)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.EvalRowsBlocked(nm, 0, n, out)
		}
	})
}

// BenchmarkKernelPartitionRows: the in-place Section 5.4 quick-sort
// partition that GET-NEXTmd performs per candidate hyperplane.
func BenchmarkKernelPartitionRows(b *testing.B) {
	const n, d = 500_000, 4
	m := benchMatrix(b, n, d)
	normal := []float64{1, -1, 0.5, -0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the normal's sign so every iteration moves rows instead
		// of sweeping an already-partitioned range.
		if i%2 == 1 {
			for k := range normal {
				normal[k] = -normal[k]
			}
		}
		m.PartitionRows(normal, 0, n)
	}
}

// BenchmarkKernelCountInside: the Algorithm 12 counting sweep with a
// constraint set nothing violates — the no-early-exit worst case.
func BenchmarkKernelCountInside(b *testing.B) {
	const n, d, constraints = 200_000, 4, 16
	m := benchMatrix(b, n, d)
	cons := benchMatrix(b, constraints, d) // non-negative rows: all samples inside
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := cons.CountInside(m, 0, n); got != n {
			b.Fatalf("count = %d, want %d", got, n)
		}
	}
}

// BenchmarkKernelCountIndexed: the fused sweep's verify counts at the verify
// workload's shape — FIFA 300 items, d = 4, one 100k-row pool per cone of
// cosine 0.998, 0.995 and 0.99 around FIFA's weights, 4 rankings drawn in
// each cone — counted by the linear grouped kernel (ConcatGroups +
// CountInsideGrouped over each pool, as the sweep does without an index) and
// by the kd-tree index (one Count per ranking). build times BuildIndex on
// the three pools. churn-shape is 1000 items over a 4096-row full-space
// pool, about 4 rows per constraint: the use rule must pick the linear
// kernel there, and the arm times the kernel it picks.
func BenchmarkKernelCountIndexed(b *testing.B) {
	const n, d, rows, perCone = 300, 4, 100_000, 4
	ds := datagen.FIFA(rand.New(rand.NewSource(benchSeed)), n)
	ref := datagen.FIFAReferenceWeights()
	type shape struct {
		pool vecmat.Matrix
		cons []vecmat.Matrix
	}
	draw := func(b *testing.B, ds *dataset.Dataset, roi geom.Region, rows, rankings int) shape {
		b.Helper()
		pool, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(roi, benchSeed), rows, ds.D(), 0)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sampling.ForRegion(roi, rand.New(rand.NewSource(benchSeed)))
		if err != nil {
			b.Fatal(err)
		}
		sh := shape{pool: pool}
		for len(sh.cons) < rankings {
			w, err := s.Sample()
			if err != nil {
				b.Fatal(err)
			}
			m, _, err := md.ConstraintMatrix(ds, rank.Compute(ds, w))
			if err != nil {
				b.Fatal(err)
			}
			sh.cons = append(sh.cons, m)
		}
		return sh
	}
	var shapes []shape
	for _, cos := range []float64{0.998, 0.995, 0.99} {
		cone, err := geom.NewConeFromCosine(geom.NewVector(ref...), cos)
		if err != nil {
			b.Fatal(err)
		}
		shapes = append(shapes, draw(b, ds, cone, rows, perCone))
	}
	linear := func(sh shape) []int {
		grouped, starts := vecmat.ConcatGroups(d, sh.cons)
		counts := make([]int, len(sh.cons))
		vecmat.CountInsideGrouped(grouped, starts, sh.pool, 0, sh.pool.Rows(), counts)
		return counts
	}
	indexes := make([]*vecmat.Index, len(shapes))
	for i, sh := range shapes {
		indexes[i] = vecmat.BuildIndex(sh.pool)
		for j, want := range linear(sh) {
			if !vecmat.UseIndex(sh.pool, sh.cons[j]) {
				b.Fatalf("verify shape: use rule rejects %d rows over %d constraints", sh.pool.Rows(), sh.cons[j].Rows())
			}
			var s vecmat.IndexScratch
			if got := indexes[i].Count(sh.cons[j], &s); got != want {
				b.Fatalf("pool %d ranking %d: index %d, linear %d", i, j, got, want)
			}
		}
	}
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, sh := range shapes {
				linear(sh)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		var s vecmat.IndexScratch
		b.ReportAllocs()
		for b.Loop() {
			for i, sh := range shapes {
				for _, cons := range sh.cons {
					indexes[i].Count(cons, &s)
				}
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, sh := range shapes {
				vecmat.BuildIndex(sh.pool)
			}
		}
	})
	b.Run("churn-shape", func(b *testing.B) {
		churn := datagen.Independent(rand.New(rand.NewSource(benchSeed)), 1000, d)
		sh := draw(b, churn, geom.FullSpace{D: d}, 4096, 1)
		if vecmat.UseIndex(sh.pool, sh.cons[0]) {
			b.Fatalf("churn shape: use rule picks the index for %d rows over %d constraints", sh.pool.Rows(), sh.cons[0].Rows())
		}
		b.ReportAllocs()
		for b.Loop() {
			linear(sh)
		}
	})
}

// BenchmarkKernelRankCompute: the allocation-free argsort ranking 200k
// items — the per-sample unit of every randomized operator.
func BenchmarkKernelRankCompute(b *testing.B) {
	ds := benchDiamonds(200_000, 3)
	c := rank.NewComputer(ds)
	w := geom.NewVector(benchEqual(3)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compute(w)
	}
}

// BenchmarkLPIntersection: the exact hyperplane-region LP test in isolation.
func BenchmarkLPIntersection(b *testing.B) {
	rr := rand.New(rand.NewSource(benchSeed))
	d := 4
	var normals []geom.Vector
	for i := 0; i < 10; i++ {
		n := make(geom.Vector, d)
		for j := range n {
			n[j] = rr.NormFloat64()
		}
		normals = append(normals, n)
	}
	h := geom.Hyperplane{Normal: geom.Vector{1, -1, 0.5, -0.5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.HyperplaneIntersects(d, h, normals); err != nil {
			b.Fatal(err)
		}
	}
}
