package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestZQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.95, 1.644854},
		{0.025, -1.959964},
	}
	for _, tc := range tests {
		if got := ZQuantile(tc.p); !almostEqual(got, tc.want, 1e-5) {
			t.Errorf("ZQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestZQuantileInvertsCDF(t *testing.T) {
	for p := 0.01; p < 1; p += 0.01 {
		if got := NormalCDF(ZQuantile(p)); !almostEqual(got, p, 1e-9) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestZQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZQuantile(%v) did not panic", p)
				}
			}()
			ZQuantile(p)
		}()
	}
}

func TestZForConfidence(t *testing.T) {
	if got := ZForConfidence(0.05); !almostEqual(got, 1.959964, 1e-5) {
		t.Errorf("ZForConfidence(0.05) = %v", got)
	}
}

func TestConfidenceError(t *testing.T) {
	// m=0.5, n=100, alpha=0.05: e = 1.96 * sqrt(0.25/100) = 0.098.
	if got := ConfidenceError(0.5, 100, 0.05); !almostEqual(got, 0.0979982, 1e-5) {
		t.Errorf("ConfidenceError = %v", got)
	}
	if got := ConfidenceError(0.5, 0, 0.05); !math.IsInf(got, 1) {
		t.Errorf("zero samples should give infinite error, got %v", got)
	}
	// Error shrinks as 1/sqrt(n).
	e1 := ConfidenceError(0.3, 100, 0.05)
	e2 := ConfidenceError(0.3, 400, 0.05)
	if !almostEqual(e1/e2, 2, 1e-9) {
		t.Errorf("error ratio = %v, want 2", e1/e2)
	}
	// Clamping out-of-range proportions: a negative proportion behaves
	// exactly like m = 0 (the Wilson boundary width, not a claim of
	// certainty).
	if got, want := ConfidenceError(-0.1, 10, 0.05), ConfidenceError(0, 10, 0.05); got != want {
		t.Errorf("negative proportion = %v, want the m=0 width %v", got, want)
	}
}

// TestConfidenceErrorEdgeCases is the table-driven boundary suite: degenerate
// proportions (0 observed hits, all hits) and single-sample estimates must
// never report a zero-width interval — the plug-in variance m(1-m) collapses
// there, so the Wilson score half-width z^2/(n+z^2) takes over.
func TestConfidenceErrorEdgeCases(t *testing.T) {
	const alpha = 0.05
	z := ZForConfidence(alpha)
	wilson := func(n int) float64 { return z * z / (float64(n) + z*z) }
	cases := []struct {
		name  string
		m     float64
		n     int
		want  float64
		exact bool
	}{
		{name: "zero hits n=1", m: 0, n: 1, want: wilson(1), exact: true},
		{name: "all hits n=1", m: 1, n: 1, want: wilson(1), exact: true},
		{name: "zero hits n=100", m: 0, n: 100, want: wilson(100), exact: true},
		{name: "all hits n=100", m: 1, n: 100, want: wilson(100), exact: true},
		{name: "zero hits n=1e6", m: 0, n: 1_000_000, want: wilson(1_000_000), exact: true},
		{name: "interior n=1", m: 0.5, n: 1, want: z * 0.5, exact: true},
		{name: "clamped above", m: 1.5, n: 10, want: wilson(10), exact: true},
		{name: "clamped below", m: -1, n: 10, want: wilson(10), exact: true},
		{name: "n=0", m: 0.5, n: 0, want: math.Inf(1), exact: true},
		{name: "n negative", m: 0, n: -3, want: math.Inf(1), exact: true},
	}
	for _, tc := range cases {
		got := ConfidenceError(tc.m, tc.n, alpha)
		if got != tc.want {
			t.Errorf("%s: ConfidenceError(%v, %d) = %v, want %v", tc.name, tc.m, tc.n, got, tc.want)
		}
	}

	// The boundary width is a genuine interval: positive, shrinking in n,
	// and at least as wide as nearby interior estimates are precise.
	if w1, w2 := ConfidenceError(0, 10, alpha), ConfidenceError(0, 1000, alpha); !(w1 > w2 && w2 > 0) {
		t.Errorf("boundary width not shrinking: n=10 %v, n=1000 %v", w1, w2)
	}
	// Continuity scale check: the m=0 width at n is within the width of the
	// smallest observable non-zero proportion 1/n, not orders of magnitude
	// off (both shrink like ~1/n vs ~1/sqrt(n * n) = 1/n here).
	n := 1000
	if w0, w1 := ConfidenceError(0, n, alpha), ConfidenceError(1.0/float64(n), n, alpha); w0 > 2*w1 {
		t.Errorf("m=0 width %v more than twice the 1/n-proportion width %v", w0, w1)
	}
}

func TestGeometric(t *testing.T) {
	if got := GeometricExpectation(0.02); !almostEqual(got, 50, 1e-9) {
		t.Errorf("GeometricExpectation(0.02) = %v", got)
	}
	if got := GeometricVariance(0.5); !almostEqual(got, 2, 1e-9) {
		t.Errorf("GeometricVariance(0.5) = %v, want 2", got)
	}
	if !math.IsInf(GeometricExpectation(0), 1) || !math.IsInf(GeometricVariance(0), 1) {
		t.Error("zero stability should have infinite discovery cost")
	}
}

func TestRegularizedIncompleteBeta(t *testing.T) {
	tests := []struct {
		z, a, b float64
		want    float64
	}{
		{0, 2, 3, 0},
		{1, 2, 3, 1},
		{0.5, 1, 1, 0.5},      // I_z(1,1) = z
		{0.3, 1, 1, 0.3},      // uniform case
		{0.5, 2, 2, 0.5},      // symmetric beta at the midpoint
		{0.25, 2, 2, 0.15625}, // 3z^2 - 2z^3 at z = 0.25
		{0.5, 0.5, 0.5, 0.5},  // arcsine distribution midpoint
	}
	for _, tc := range tests {
		if got := RegularizedIncompleteBeta(tc.z, tc.a, tc.b); !almostEqual(got, tc.want, 1e-10) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", tc.z, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRegularizedIncompleteBetaSymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		z := rr.Float64()
		a := rr.Float64()*5 + 0.1
		b := rr.Float64()*5 + 0.1
		lhs := RegularizedIncompleteBeta(z, a, b)
		rhs := 1 - RegularizedIncompleteBeta(1-z, b, a)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestRegularizedIncompleteBetaMonotone(t *testing.T) {
	prev := -1.0
	for z := 0.0; z <= 1.0001; z += 0.01 {
		zz := math.Min(z, 1)
		v := RegularizedIncompleteBeta(zz, 1.5, 0.5)
		if v < prev-1e-12 {
			t.Fatalf("I_z not monotone at z=%v", zz)
		}
		prev = v
	}
}

func TestCapCDFMatchesClosedForm3D(t *testing.T) {
	// For d = 3, F(x) = (1-cos x)/(1-cos theta) (Equation 15).
	theta := 0.8
	for x := 0.05; x < theta; x += 0.05 {
		want := (1 - math.Cos(x)) / (1 - math.Cos(theta))
		if got := CapCDF(x, theta, 3); !almostEqual(got, want, 1e-9) {
			t.Errorf("CapCDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestCapCDF3DInverse(t *testing.T) {
	theta := 0.6
	for y := 0.0; y <= 1; y += 0.1 {
		x := CapCDF3DInverse(y, theta)
		want := (1 - math.Cos(x)) / (1 - math.Cos(theta))
		if !almostEqual(want, y, 1e-9) {
			t.Errorf("inverse CDF roundtrip failed at y=%v", y)
		}
	}
	if got := CapCDF3DInverse(-1, theta); got != 0 {
		t.Errorf("clamped y<0 should give 0, got %v", got)
	}
	if got := CapCDF3DInverse(2, theta); !almostEqual(got, theta, 1e-9) {
		t.Errorf("clamped y>1 should give theta, got %v", got)
	}
}

func TestCapCDFBoundaries(t *testing.T) {
	if CapCDF(0, 0.5, 4) != 0 {
		t.Error("CapCDF(0) != 0")
	}
	if CapCDF(0.5, 0.5, 4) != 1 {
		t.Error("CapCDF(theta) != 1")
	}
	if CapCDF(0.7, 0.5, 4) != 1 {
		t.Error("CapCDF(x > theta) != 1")
	}
}

func TestRiemannTableMatchesBetaCDF(t *testing.T) {
	// The numeric table (Algorithm 10) must agree with the closed-form
	// Equation 16 CDF.
	for _, d := range []int{2, 3, 4, 5, 7} {
		tab, err := NewRiemannTable(d, 0.7, 20000)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0.05; x < 0.7; x += 0.05 {
			want := CapCDF(x, 0.7, d)
			if got := tab.CDF(x); !almostEqual(got, want, 1e-4) {
				t.Errorf("d=%d: table CDF(%v) = %v, want %v", d, x, got, want)
			}
		}
	}
}

func TestRiemannInverseCDFRoundTrip(t *testing.T) {
	tab, err := NewRiemannTable(4, 0.9, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0.01; y < 1; y += 0.01 {
		x := tab.InverseCDF(y)
		if got := tab.CDF(x); !almostEqual(got, y, 1e-3) {
			t.Fatalf("CDF(InverseCDF(%v)) = %v", y, got)
		}
	}
	if tab.InverseCDF(0) != 0 {
		t.Error("InverseCDF(0) != 0")
	}
	if !almostEqual(tab.InverseCDF(1), 0.9, 1e-12) {
		t.Error("InverseCDF(1) != theta")
	}
}

func TestRiemannTableErrors(t *testing.T) {
	if _, err := NewRiemannTable(1, 0.5, 10); err == nil {
		t.Error("d=1 accepted")
	}
	if _, err := NewRiemannTable(3, 0, 10); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := NewRiemannTable(3, 0.5, 0); err == nil {
		t.Error("gamma=0 accepted")
	}
}

func TestChiSquareStatistic(t *testing.T) {
	stat, err := ChiSquareStatistic([]int{10, 10, 10}, []float64{10, 10, 10})
	if err != nil || stat != 0 {
		t.Errorf("perfect fit: stat=%v err=%v", stat, err)
	}
	stat, err = ChiSquareStatistic([]int{12, 8}, []float64{10, 10})
	if err != nil || !almostEqual(stat, 0.8, 1e-12) {
		t.Errorf("stat = %v, want 0.8", stat)
	}
	if _, err := ChiSquareStatistic([]int{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareStatistic([]int{1}, []float64{0}); err == nil {
		t.Error("zero expectation accepted")
	}
}

func TestChiSquareCritical(t *testing.T) {
	// Known values: chi2(0.95, 10) ~ 18.307, chi2(0.95, 30) ~ 43.773.
	if got := ChiSquareCritical(10, 0.05); math.Abs(got-18.307) > 0.3 {
		t.Errorf("critical(10, .05) = %v, want ~18.3", got)
	}
	if got := ChiSquareCritical(30, 0.05); math.Abs(got-43.773) > 0.3 {
		t.Errorf("critical(30, .05) = %v, want ~43.8", got)
	}
}

func TestUniformityTest(t *testing.T) {
	rr := rand.New(rand.NewSource(22))
	uniform := make([]float64, 20000)
	for i := range uniform {
		uniform[i] = rr.Float64()
	}
	_, _, ok, err := UniformityTest(uniform, 50, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("uniform samples rejected")
	}
	// Clearly non-uniform: squared uniforms pile up near zero.
	skewed := make([]float64, 20000)
	for i := range skewed {
		u := rr.Float64()
		skewed[i] = u * u
	}
	_, _, ok, err = UniformityTest(skewed, 50, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("skewed samples accepted as uniform")
	}
	// Error paths.
	if _, _, _, err := UniformityTest(uniform[:10], 50, 0.01); err == nil {
		t.Error("too-few samples accepted")
	}
	if _, _, _, err := UniformityTest([]float64{2, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 0.1, 0.2, 0.3}, 2, 0.01); err == nil {
		t.Error("out-of-range sample accepted")
	}
}
