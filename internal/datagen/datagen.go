// Package datagen generates the synthetic and simulated datasets behind the
// paper's evaluation (Section 6.1). The classic independent / correlated /
// anti-correlated generators follow Börzsönyi et al. (the paper uses that
// code for Figure 21); the domain generators simulate the statistical shape
// of the four real datasets the paper crawls (CSMetrics, FIFA, Blue Nile,
// US DoT on-time flights), which are not redistributable. Each generator's
// doc comment names the statistical shape it keeps from the real data.
//
// All generators take an explicit *rand.Rand so every experiment is
// reproducible from a seed, and return datasets already normalized to
// [0, 1] with larger-is-better orientation, as the algorithms assume.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"stablerank/internal/dataset"
)

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Independent returns n items with d attributes drawn i.i.d. uniform [0, 1].
func Independent(rng *rand.Rand, n, d int) *dataset.Dataset {
	ds := dataset.MustNew(d)
	v := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = rng.Float64()
		}
		ds.MustAdd(fmt.Sprintf("i%d", i), v...)
	}
	return ds
}

// Correlated returns n items whose attributes are positively correlated:
// each item has a latent quality and every attribute is a noisy logistic
// squash of it (the Börzsönyi "correlated" workload: points concentrated
// around the main diagonal). The smooth squash — rather than hard clamping —
// keeps extreme items distinct, so the top of the ranking never degenerates
// into exact ties.
func Correlated(rng *rand.Rand, n, d int) *dataset.Dataset {
	ds := dataset.MustNew(d)
	v := make([]float64, d)
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		for j := range v {
			v[j] = sigmoid(1.1*z + 0.45*rng.NormFloat64())
		}
		ds.MustAdd(fmt.Sprintf("c%d", i), v...)
	}
	return ds
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// AntiCorrelated returns n items whose attributes are negatively correlated:
// points concentrated around the anti-diagonal hyperplane sum(x) ~ const, so
// an item good in one attribute tends to be poor in the others (the
// Börzsönyi "anti-correlated" workload).
func AntiCorrelated(rng *rand.Rand, n, d int) *dataset.Dataset {
	ds := dataset.MustNew(d)
	v := make([]float64, d)
	for i := 0; i < n; i++ {
		// Total budget near d/2 with small spread, split by a random point
		// of the simplex (normalized exponentials).
		budget := float64(d) * (0.5 + 0.05*rng.NormFloat64())
		var sum float64
		for j := range v {
			v[j] = rng.ExpFloat64()
			sum += v[j]
		}
		for j := range v {
			v[j] = clamp01(v[j] / sum * budget)
		}
		ds.MustAdd(fmt.Sprintf("a%d", i), v...)
	}
	return ds
}

// CorrelationKind selects one of the three synthetic workloads of Figure 21.
type CorrelationKind int

const (
	KindIndependent CorrelationKind = iota
	KindCorrelated
	KindAntiCorrelated
)

// String implements fmt.Stringer.
func (k CorrelationKind) String() string {
	switch k {
	case KindIndependent:
		return "independent"
	case KindCorrelated:
		return "correlated"
	case KindAntiCorrelated:
		return "anti-correlated"
	default:
		return fmt.Sprintf("CorrelationKind(%d)", int(k))
	}
}

// Synthetic dispatches on kind.
func Synthetic(rng *rand.Rand, kind CorrelationKind, n, d int) *dataset.Dataset {
	switch kind {
	case KindCorrelated:
		return Correlated(rng, n, d)
	case KindAntiCorrelated:
		return AntiCorrelated(rng, n, d)
	default:
		return Independent(rng, n, d)
	}
}

// CSMetrics simulates the CSMetrics institution ranking data (d = 2).
// Institutions have heavy-tailed citation counts; the measured (M) and
// predicted (P) counts share a latent quality with correlation ~0.9. As on
// the CSMetrics site, the score (M^alpha)(P^(1-alpha)) is linearized by
// x1 = log M, x2 = log P (Section 6.1), then min-max normalized. The
// reference scoring function uses alpha = 0.3, i.e. weights (0.3, 0.7).
func CSMetrics(rng *rand.Rand, n int) *dataset.Dataset {
	raw := dataset.MustNew(2)
	for i := 0; i < n; i++ {
		// Latent log-quality decreasing in expectation with rank, so the
		// simulated crawl resembles a "top-n" slice of a heavy tail.
		q := 10 - 2.2*math.Log(1+float64(i)) + 0.35*rng.NormFloat64()
		m := q + 0.25*rng.NormFloat64()
		p := q + 0.25*rng.NormFloat64()
		raw.MustAdd(fmt.Sprintf("inst%03d", i+1), m, p) // already log scale
	}
	norm, err := raw.Normalize(nil)
	if err != nil {
		panic(err) // n >= 1 guaranteed by callers; Normalize cannot fail
	}
	return norm
}

// CSMetricsReferenceWeights is the CSMetrics default alpha = 0.3, expressed
// as the linear weight vector over (log M, log P).
func CSMetricsReferenceWeights() []float64 { return []float64{0.3, 0.7} }

// FIFA simulates the FIFA men's ranking data (d = 4): per-team performance
// in the current year and the three preceding years. Teams have a persistent
// latent strength plus yearly form noise, giving four positively correlated
// attributes, as in the real ranking table.
func FIFA(rng *rand.Rand, n int) *dataset.Dataset {
	raw := dataset.MustNew(4)
	for i := 0; i < n; i++ {
		strength := 1600 - 9*float64(i) + 60*rng.NormFloat64()
		attrs := make([]float64, 4)
		for j := range attrs {
			attrs[j] = strength + 110*rng.NormFloat64()
		}
		raw.MustAdd(fmt.Sprintf("team%03d", i+1), attrs...)
	}
	norm, err := raw.Normalize(nil)
	if err != nil {
		panic(err)
	}
	return norm
}

// FIFAReferenceWeights is the published FIFA aggregation
// t[1] + 0.5 t[2] + 0.3 t[3] + 0.2 t[4] (Section 6.1).
func FIFAReferenceWeights() []float64 { return []float64{1, 0.5, 0.3, 0.2} }

// Diamonds simulates the Blue Nile catalog (d = 5): Price, Carat, Depth,
// LengthWidthRatio, Table. Carat is log-normal; price grows superlinearly
// with carat with multiplicative noise; the cut proportions are near-normal.
// As in Section 6.1, price is lower-preferred and is flipped during
// normalization; all other attributes are higher-preferred.
func Diamonds(rng *rand.Rand, n int) *dataset.Dataset {
	raw := dataset.MustNew(5)
	for i := 0; i < n; i++ {
		carat := math.Exp(-0.4 + 0.55*rng.NormFloat64())
		price := 4000 * math.Pow(carat, 1.7) * math.Exp(0.25*rng.NormFloat64())
		depth := 61.8 + 1.4*rng.NormFloat64()
		lw := 1.01 + 0.05*math.Abs(rng.NormFloat64())
		table := 57 + 2.2*rng.NormFloat64()
		raw.MustAdd(fmt.Sprintf("d%06d", i), price, carat, depth, lw, table)
	}
	norm, err := raw.Normalize([]dataset.Direction{
		dataset.LowerBetter, // price
		dataset.HigherBetter,
		dataset.HigherBetter,
		dataset.HigherBetter,
		dataset.HigherBetter,
	})
	if err != nil {
		panic(err)
	}
	return norm
}

// Flights simulates the US DoT on-time dataset (d = 3): air-time, taxi-in
// and taxi-out minutes. Air time is a short-haul/long-haul mixture; taxi
// times are right-skewed (sums of exponentials). The paper ranks on these
// three attributes directly; we normalize higher-preferred as the paper's
// pipeline does after its transform.
func Flights(rng *rand.Rand, n int) *dataset.Dataset {
	raw := dataset.MustNew(3)
	for i := 0; i < n; i++ {
		var air float64
		if rng.Float64() < 0.65 {
			air = 95 + 30*rng.NormFloat64() // short haul
		} else {
			air = 280 + 70*rng.NormFloat64() // long haul
		}
		if air < 20 {
			air = 20 + rng.Float64()*10
		}
		taxiIn := 4 + rng.ExpFloat64()*4 + rng.ExpFloat64()*2
		taxiOut := 10 + rng.ExpFloat64()*7 + rng.ExpFloat64()*3
		raw.MustAdd(fmt.Sprintf("f%07d", i), air, taxiIn, taxiOut)
	}
	norm, err := raw.Normalize(nil)
	if err != nil {
		panic(err)
	}
	return norm
}
