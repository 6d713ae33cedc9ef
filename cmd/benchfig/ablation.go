package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"stablerank/internal/geom"
	"stablerank/internal/md"
	"stablerank/internal/sampling"
	"stablerank/internal/stats"
)

// samplers reproduces the sampler illustrations of Figures 3, 4 and 6 as
// statistics instead of scatter plots: the chi-square uniformity of the
// z-projection (Archimedes: uniform for an unbiased sphere sampler) for the
// naive angle-uniform sampler (Figure 3, biased) and Algorithm 9 (Figure 4,
// unbiased), plus the probability-integral-transform uniformity of the cap
// sampler's polar angle for the numeric and closed-form inverse CDFs
// (Figure 6).
func samplers(r run) {
	const n = 40000
	rng := rand.New(rand.NewSource(r.seed))

	project := func(s sampling.Sampler) []float64 {
		zs := make([]float64, n)
		for i := range zs {
			w, err := s.Sample()
			if err != nil {
				fatal(err)
			}
			zs[i] = w[2]
		}
		return zs
	}
	report := func(label string, us []float64) {
		stat, crit, ok, err := stats.UniformityTest(us, 40, 0.001)
		if err != nil {
			fatal(err)
		}
		verdict := "UNIFORM (not rejected)"
		if !ok {
			verdict = "BIASED (rejected)"
		}
		fmt.Printf("  %-34s chi2=%9.1f crit=%7.1f  %s\n", label, stat, crit, verdict)
	}

	fmt.Println("z-projection of sphere samples in R^3 (uniform iff sampler unbiased):")
	biased, err := sampling.NewBiasedAngles(3, rng)
	if err != nil {
		fatal(err)
	}
	report("angle-uniform sampler (Fig 3)", project(biased))
	uniform, err := sampling.NewUniform(3, rng)
	if err != nil {
		fatal(err)
	}
	report("Algorithm 9 sampler (Fig 4)", project(uniform))

	fmt.Println("cap sampler polar-angle PIT (Fig 6), theta=pi/20:")
	capPIT := func(d int) []float64 {
		axis := make(geom.Vector, d)
		for i := range axis {
			axis[i] = 1
		}
		cone, err := geom.NewCone(axis, math.Pi/20)
		if err != nil {
			fatal(err)
		}
		c, err := sampling.NewCap(cone, rng)
		if err != nil {
			fatal(err)
		}
		us := make([]float64, n)
		for i := range us {
			w, err := c.Sample()
			if err != nil {
				fatal(err)
			}
			a, err := geom.Angle(w, cone.Axis)
			if err != nil {
				fatal(err)
			}
			us[i] = stats.CapCDF(a, cone.Theta, d)
		}
		return us
	}
	report("closed-form inverse CDF, d=3 (Eq 15)", capPIT(3))
	report("Riemann-table inverse CDF, d=5", capPIT(5))
}

// ablation prints the three design ablations DESIGN.md calls out.
func ablation(r run) {
	ablationPassThrough(r)
	ablationSamplingMethod(r)
	ablationDelayed(r)
}

// ablationPassThrough compares the sample-partition passThrough of
// Section 5.4 against the exact-LP variant of Section 4.2 on identical
// inputs.
func ablationPassThrough(r run) {
	n, d, samples := 60, 3, 30000
	if r.quick {
		n, samples = 30, 10000
	}
	ds := diamondsD(r.seed, n, d)
	cone, err := geom.NewCone(geom.NewVector(equalWeights(d)...), math.Pi/20)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("(a) passThrough mode, n=%d d=%d samples=%d, top-5 rankings:\n", n, d, samples)
	for _, mode := range []struct {
		name string
		m    md.IntersectionMode
	}{{"sample-partition", md.SamplePartition}, {"lp-exact", md.LPExact}} {
		pool := drawPool(cone, samples, r.seed+12)
		engine, err := md.NewEngineMatrix(ds, cone, pool, mode.m)
		if err != nil {
			fatal(err)
		}
		var results []md.Result
		dur := timed(func() {
			results, err = md.TopH(ctx, engine, 5)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-18s time=%12s splits=%6d lp-calls=%6d top stability=%.4f\n",
			mode.name, dur, engine.Splits(), engine.LPCalls(), results[0].Stability)
	}
}

// ablationSamplingMethod compares acceptance-rejection from U against the
// inverse-CDF cap sampler across region widths, the Section 5.2 trade-off.
func ablationSamplingMethod(r run) {
	const n = 20000
	d := 4
	fmt.Printf("(b) sampling method, d=%d, %d draws per cell:\n", d, n)
	fmt.Printf("  %-14s %16s %16s %18s\n", "theta", "inverse-CDF", "rejection", "expected trials")
	for _, th := range []struct {
		label string
		theta float64
	}{{"pi/4", math.Pi / 4}, {"pi/20", math.Pi / 20}, {"pi/100", math.Pi / 100}} {
		axis := geom.NewVector(equalWeights(d)...)
		cone, err := geom.NewCone(axis, th.theta)
		if err != nil {
			fatal(err)
		}
		capS, err := sampling.NewCap(cone, rand.New(rand.NewSource(r.seed+13)))
		if err != nil {
			fatal(err)
		}
		capDur := timed(func() {
			for i := 0; i < n; i++ {
				if _, err := capS.Sample(); err != nil {
					fatal(err)
				}
			}
		})
		u, err := sampling.NewUniform(d, rand.New(rand.NewSource(r.seed+14)))
		if err != nil {
			fatal(err)
		}
		rej, err := sampling.NewRejection(u, cone, 0)
		if err != nil {
			fatal(err)
		}
		var rejDur time.Duration
		rejDur = timed(func() {
			for i := 0; i < n; i++ {
				if _, err := rej.Sample(); err != nil {
					if errors.Is(err, sampling.ErrRejectionBudget) {
						return
					}
					fatal(err)
				}
			}
		})
		fmt.Printf("  %-14s %16s %16s %18.1f\n",
			th.label, capDur, rejDur, sampling.RejectionCost(d, th.theta))
	}
}

// ablationDelayed measures the benefit of the delayed arrangement (the
// paper's core argument in Section 4.2): time-to-first-ranking under the
// delayed engine vs full construction.
func ablationDelayed(r run) {
	n, d, samples := 40, 3, 30000
	if r.quick {
		n, samples = 24, 10000
	}
	ds := diamondsD(r.seed, n, d)
	cone, err := geom.NewCone(geom.NewVector(equalWeights(d)...), math.Pi/20)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("(c) delayed vs full arrangement, n=%d d=%d samples=%d:\n", n, d, samples)

	pool := drawPool(cone, samples, r.seed+15)
	engine, err := md.NewEngineMatrix(ds, cone, pool, md.SamplePartition)
	if err != nil {
		fatal(err)
	}
	var first md.Result
	delayed := timed(func() {
		first, err = engine.Next(ctx)
	})
	if err != nil {
		fatal(err)
	}
	splitsToFirst := engine.Splits()

	pool2 := drawPool(cone, samples, r.seed+15)
	var full []md.Result
	fullDur := timed(func() {
		full, err = md.FullArrangement(ctx, ds, cone, pool2, 0)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  delayed: first ranking in %12s after %5d splits (stability %.4f)\n",
		delayed, splitsToFirst, first.Stability)
	fmt.Printf("  full:    %5d regions in    %12s before the first answer\n",
		len(full), fullDur)
}
