package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"stablerank"

	"stablerank/internal/datagen"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/md"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// diamondsD returns the simulated Blue Nile catalog projected to d
// attributes.
func diamondsD(seed int64, n, d int) *dataset.Dataset {
	ds := datagen.Diamonds(rand.New(rand.NewSource(seed)), n)
	p, err := ds.Project(d)
	if err != nil {
		fatal(err)
	}
	return p
}

func equalWeights(d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = 1
	}
	return w
}

// drawPool draws n samples of the region into a contiguous matrix, the
// form every md entry point takes.
func drawPool(roi geom.Region, n int, seed int64) vecmat.Matrix {
	s, err := sampling.ForRegion(roi, rand.New(rand.NewSource(seed)))
	if err != nil {
		fatal(err)
	}
	pool := vecmat.New(n, roi.Dim())
	for i := 0; i < n; i++ {
		if err := sampling.Into(s, pool.Row(i)); err != nil {
			fatal(err)
		}
	}
	return pool
}

// fig9 reproduces Figure 9: the stability distribution of the top-100 stable
// rankings of the (simulated) FIFA table within 0.999 cosine similarity of
// the published weights, using GET-NEXTmd with 10,000 samples. The paper's
// headline: the reference ranking is NOT among the top-100.
func fig9(r run) {
	n, h, samples := 100, 100, 10000
	if r.quick {
		n, h, samples = 60, 30, 5000
	}
	ds := datagen.FIFA(rand.New(rand.NewSource(r.seed)), n)
	ref := datagen.FIFAReferenceWeights()
	reference := stablerank.RankingOf(ds, ref)
	cone, err := geom.NewConeFromCosine(geom.NewVector(ref...), 0.999)
	if err != nil {
		fatal(err)
	}
	pool := drawPool(cone, samples, r.seed+1)
	engine, err := md.NewEngineMatrix(ds, cone, pool, md.SamplePartition)
	if err != nil {
		fatal(err)
	}
	results, err := md.TopH(ctx, engine, h)
	if err != nil {
		fatal(err)
	}
	refIn := false
	fmt.Printf("n=%d d=4 theta=pi/100 samples=%d  exchanges crossing region: %d\n",
		n, samples, engine.HyperplaneCount())
	fmt.Printf("%8s %12s\n", "rank", "stability")
	for i, s := range results {
		if s.Ranking.Equal(reference) {
			refIn = true
			fmt.Printf("%8d %12.5f  <- reference\n", i+1, s.Stability)
			continue
		}
		if i < 10 || i%10 == 9 {
			fmt.Printf("%8d %12.5f\n", i+1, s.Stability)
		}
	}
	if refIn {
		fmt.Printf("reference ranking IS among the top-%d\n", len(results))
	} else {
		fmt.Printf("reference ranking NOT among the top-%d (paper's finding)\n", len(results))
	}
	if len(results) > 0 {
		refDistance(ds, reference, results[0].Ranking)
	}
}

// fig12 reproduces Figure 12: MD stability verification time and the
// stability of the default ranking, d=3, 1M samples, n from 100 to 10k.
// The paper: time grows linearly with n (the region has O(n) constraints);
// stability collapses to ~0 beyond a few hundred items.
func fig12(r run) {
	samples := 1_000_000
	sizes := []int{100, 1000, 10000}
	if r.quick {
		samples = 100_000
		sizes = []int{100, 1000}
	}
	pool := drawPool(geom.FullSpace{D: 3}, samples, r.seed+2)
	fmt.Printf("samples=%d\n", samples)
	fmt.Printf("%10s %14s %14s\n", "n", "SV time", "stability")
	for _, n := range sizes {
		ds := diamondsD(r.seed, n, 3)
		ranking := stablerank.RankingOf(ds, equalWeights(3))
		var res md.VerifyResult
		var err error
		dur := timed(func() { res, err = md.VerifyMatrix(ctx, ds, ranking, pool) })
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%10d %14s %14.3e\n", n, dur, res.Stability)
	}
}

// getNextSweep runs GET-NEXTmd for the top-10 stable rankings and prints the
// per-call latency series, the quantity Figures 13-15 plot.
func getNextSweep(label string, ds *dataset.Dataset, roi geom.Region, samples int, seed int64) {
	pool := drawPool(roi, samples, seed)
	var engine *md.Engine
	var err error
	setup := timed(func() {
		engine, err = md.NewEngineMatrix(ds, roi, pool, md.SamplePartition)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-18s setup=%12s exchanges=%8d  per-call times:", label, setup, engine.HyperplaneCount())
	for i := 0; i < 10; i++ {
		var d time.Duration
		d = timed(func() {
			_, err = engine.Next(ctx)
		})
		if errors.Is(err, md.ErrExhausted) {
			fmt.Printf(" (exhausted)")
			break
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf(" %s", d.Round(10*time.Microsecond))
	}
	fmt.Println()
}

// fig13 reproduces Figure 13: GET-NEXTmd per-call time for the top-10
// rankings, d=3, theta=pi/100, varying n. The paper: later calls are much
// cheaper than early ones; cost explodes with n (the O(n^2) exchanges), its
// motivation for the randomized operator at scale.
func fig13(r run) {
	samples := 100_000
	sizes := []int{10, 100, 1000}
	if !r.quick {
		sizes = append(sizes, 4000)
	} else {
		samples = 20_000
	}
	d := 3
	cone, err := geom.NewCone(geom.NewVector(equalWeights(d)...), math.Pi/100)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("d=%d theta=pi/100 samples=%d (paper sweeps to n=10k; largest tier here %d)\n",
		d, samples, sizes[len(sizes)-1])
	for _, n := range sizes {
		ds := diamondsD(r.seed, n, d)
		getNextSweep(fmt.Sprintf("n=%d", n), ds, cone, samples, r.seed+3)
	}
}

// fig14 reproduces Figure 14: GET-NEXTmd per-call time for d = 3, 4, 5 at
// n=100. The paper: running times are similar across d because the search
// works on a fixed sample set.
func fig14(r run) {
	samples := 100_000
	if r.quick {
		samples = 20_000
	}
	n := 100
	fmt.Printf("n=%d theta=pi/100 samples=%d\n", n, samples)
	for _, d := range []int{3, 4, 5} {
		ds := diamondsD(r.seed, n, d)
		cone, err := geom.NewCone(geom.NewVector(equalWeights(d)...), math.Pi/100)
		if err != nil {
			fatal(err)
		}
		getNextSweep(fmt.Sprintf("d=%d", d), ds, cone, samples, r.seed+4)
	}
}

// fig15 reproduces Figure 15: GET-NEXTmd per-call time for region widths
// theta = pi/10, pi/50, pi/100 at n=100, d=3. The paper: similar behaviour
// across widths.
func fig15(r run) {
	samples := 100_000
	if r.quick {
		samples = 20_000
	}
	n, d := 100, 3
	ds := diamondsD(r.seed, n, d)
	fmt.Printf("n=%d d=%d samples=%d\n", n, d, samples)
	for _, th := range []struct {
		label string
		theta float64
	}{{"theta=pi/10", math.Pi / 10}, {"theta=pi/50", math.Pi / 50}, {"theta=pi/100", math.Pi / 100}} {
		cone, err := geom.NewCone(geom.NewVector(equalWeights(d)...), th.theta)
		if err != nil {
			fatal(err)
		}
		getNextSweep(th.label, ds, cone, samples, r.seed+5)
	}
}
