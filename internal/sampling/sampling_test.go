package sampling

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/geom"
	"stablerank/internal/stats"
)

func TestUniformSamplesAreUnitOrthant(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range []int{2, 3, 5} {
		u, err := NewUniform(d, rng)
		if err != nil {
			t.Fatal(err)
		}
		if u.Dim() != d {
			t.Errorf("Dim = %d", u.Dim())
		}
		for i := 0; i < 500; i++ {
			w, err := u.Sample()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(w.Norm()-1) > 1e-9 {
				t.Fatalf("d=%d: sample norm %v", d, w.Norm())
			}
			if !w.NonNegative(0) {
				t.Fatalf("d=%d: sample %v outside orthant", d, w)
			}
		}
	}
}

func TestNewUniformValidation(t *testing.T) {
	if _, err := NewUniform(1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("d=1 accepted")
	}
	if _, err := NewUniform(3, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// Uniformity on the sphere: for a uniform point on the orthant of S^2, the
// coordinate z has density proportional to 1 (Archimedes): z is uniform on
// [0, 1]. Check with a chi-square test.
func TestUniformArchimedesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	u, _ := NewUniform(3, rng)
	zs := make([]float64, 40000)
	for i := range zs {
		w, err := u.Sample()
		if err != nil {
			t.Fatal(err)
		}
		zs[i] = w[2]
	}
	stat, crit, ok, err := stats.UniformityTest(zs, 40, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("z-projection of uniform sphere samples rejected: stat=%v crit=%v", stat, crit)
	}
}

// The biased angle sampler must FAIL the same projection test — this is the
// paper's Figure 3 demonstration.
func TestBiasedAnglesAreNotUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	b, err := NewBiasedAngles(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != 3 {
		t.Error("Dim")
	}
	zs := make([]float64, 40000)
	for i := range zs {
		w, err := b.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Norm()-1) > 1e-9 {
			t.Fatal("biased sample not unit")
		}
		zs[i] = w[2]
	}
	_, _, ok, err := stats.UniformityTest(zs, 40, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("angle-uniform sampler passed the uniformity test; it should be biased (Figure 3)")
	}
}

func TestNewBiasedAnglesValidation(t *testing.T) {
	if _, err := NewBiasedAngles(1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("d=1 accepted")
	}
	if _, err := NewBiasedAngles(3, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestCapSamplesInsideCone(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, d := range []int{2, 3, 4, 5} {
		axis := make(geom.Vector, d)
		for i := range axis {
			axis[i] = 1
		}
		cone, err := geom.NewCone(axis, math.Pi/10)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCap(cone, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.Dim() != d {
			t.Errorf("Dim = %d", c.Dim())
		}
		for i := 0; i < 1000; i++ {
			w, err := c.Sample()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(w.Norm()-1) > 1e-9 {
				t.Fatalf("d=%d: cap sample norm %v", d, w.Norm())
			}
			a, err := geom.Angle(w, cone.Axis)
			if err != nil {
				t.Fatal(err)
			}
			if a > cone.Theta+1e-9 {
				t.Fatalf("d=%d: sample at angle %v > theta %v", d, a, cone.Theta)
			}
			if !w.NonNegative(0) {
				t.Fatalf("d=%d: cap sample %v outside orthant", d, w)
			}
		}
	}
}

// The polar angle of a uniform cap sample has CDF F(x) of Equation 16; apply
// the probability integral transform and chi-square the result.
func TestCapAngleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, d := range []int{2, 3, 4, 6} {
		// Cap fully inside the orthant (axis-to-boundary angle is
		// asin(1/sqrt(d)) ~ 0.42 for d = 6 > pi/8), so no orthant rejection
		// perturbs the radial law.
		axis := make(geom.Vector, d)
		for i := range axis {
			axis[i] = 1
		}
		axis = axis.MustNormalize()
		theta := math.Pi / 8
		cone := geom.Cone{Axis: axis, Theta: theta}
		c, err := NewCap(cone, rng)
		if err != nil {
			t.Fatal(err)
		}
		us := make([]float64, 20000)
		for i := range us {
			w, err := c.Sample()
			if err != nil {
				t.Fatal(err)
			}
			a, _ := geom.Angle(w, axis)
			if d == 2 {
				// F is the signed-angle CDF: angle is uniform on
				// [-theta, theta] so |angle| has CDF a/theta.
				us[i] = a / theta
			} else {
				us[i] = stats.CapCDF(a, theta, d)
			}
		}
		stat, crit, ok, err := stats.UniformityTest(us, 30, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("d=%d: cap polar-angle PIT rejected: stat=%v crit=%v", d, stat, crit)
		}
	}
}

// Cap samples must be uniform within the cap, not merely have the right
// radial law: test rotational symmetry by checking the sign balance of a
// tangential coordinate.
func TestCapTangentialSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	axis := geom.Vector{1, 1, 1, 1}.MustNormalize()
	cone := geom.Cone{Axis: axis, Theta: math.Pi / 12}
	c, err := NewCap(cone, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Tangent direction orthogonal to the axis.
	tangent := geom.Vector{1, -1, 0, 0}.MustNormalize()
	pos, n := 0, 20000
	for i := 0; i < n; i++ {
		w, err := c.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if tangent.Dot(w) > 0 {
			pos++
		}
	}
	frac := float64(pos) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("tangential sign fraction = %v, want ~0.5", frac)
	}
}

func TestNewCapValidation(t *testing.T) {
	cone := geom.Cone{Axis: geom.Vector{1, 0}, Theta: 0.1}
	if _, err := NewCap(cone, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewCap(geom.Cone{Axis: geom.Vector{1, 0}, Theta: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero angle accepted")
	}
	if _, err := NewCap(geom.Cone{Axis: geom.Vector{1}, Theta: 0.1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("d=1 accepted")
	}
}

func TestCapNearOrthantBoundary(t *testing.T) {
	// A cone hugging the x-axis overhangs the orthant; samples must still be
	// non-negative (overhang rejected internally).
	rng := rand.New(rand.NewSource(67))
	cone, err := geom.NewCone(geom.Vector{1, 0.05, 0.05}, math.Pi/8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCap(cone, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		w, err := c.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !w.NonNegative(0) {
			t.Fatalf("sample %v outside orthant", w)
		}
	}
}

func TestRejectionSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	u, _ := NewUniform(3, rng)
	region, err := geom.NewConstraintRegion(3,
		geom.Halfspace{Normal: geom.Vector{1, -1, 0}, Positive: true}, // w1 >= w2
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRejection(u, region, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dim() != 3 {
		t.Error("Dim")
	}
	for i := 0; i < 2000; i++ {
		w, err := r.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !region.Contains(w) {
			t.Fatalf("rejected-region sample %v outside region", w)
		}
	}
	// Half the orthant satisfies w1 >= w2 by symmetry.
	if rate := r.AcceptanceRate(); math.Abs(rate-0.5) > 0.05 {
		t.Errorf("acceptance rate = %v, want ~0.5", rate)
	}
}

func TestRejectionBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	u, _ := NewUniform(2, rng)
	// Empty region: contradictory constraints.
	region, err := geom.NewConstraintRegion(2,
		geom.Halfspace{Normal: geom.Vector{1, -1}, Positive: true},
		geom.Halfspace{Normal: geom.Vector{-1, 1}.Scale(1), Positive: true},
		geom.Halfspace{Normal: geom.Vector{0, -1}, Positive: true}, // w2 <= 0 and w1 = w2 -> measure zero
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRejection(u, region, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sample(); !errors.Is(err, ErrRejectionBudget) {
		t.Errorf("expected budget error, got %v", err)
	}
	if r.AcceptanceRate() != 0 {
		t.Error("acceptance rate should be 0")
	}
}

func TestNewRejectionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	u, _ := NewUniform(2, rng)
	if _, err := NewRejection(nil, geom.FullSpace{D: 2}, 0); err == nil {
		t.Error("nil proposal accepted")
	}
	if _, err := NewRejection(u, nil, 0); err == nil {
		t.Error("nil region accepted")
	}
	if _, err := NewRejection(u, geom.FullSpace{D: 3}, 0); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestForRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// Full space -> Uniform.
	s, err := ForRegion(geom.FullSpace{D: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Uniform); !ok {
		t.Errorf("full space sampler is %T", s)
	}
	// Cone -> Cap.
	cone, _ := geom.NewCone(geom.Vector{1, 1, 1}, 0.2)
	s, err = ForRegion(cone, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Cap); !ok {
		t.Errorf("cone sampler is %T", s)
	}
	// Interval2D -> Cap via equivalent cone.
	iv, _ := geom.NewInterval2D(0.2, 0.6)
	s, err = ForRegion(iv, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		a := geom.Angle2D(w)
		if a < 0.2-1e-9 || a > 0.6+1e-9 {
			t.Fatalf("interval sample at angle %v outside [0.2, 0.6]", a)
		}
	}
	// Constraint region -> Rejection.
	cr, _ := geom.NewConstraintRegion(2, geom.Halfspace{Normal: geom.Vector{1, -1}, Positive: true})
	s, err = ForRegion(cr, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Rejection); !ok {
		t.Errorf("constraint sampler is %T", s)
	}
}

func TestRejectionCostAndPreference(t *testing.T) {
	// Narrow cones are expensive to hit by rejection.
	narrow := RejectionCost(3, math.Pi/100)
	wide := RejectionCost(3, math.Pi/4)
	if narrow <= wide {
		t.Errorf("narrow cone cost %v should exceed wide cone cost %v", narrow, wide)
	}
	if !math.IsInf(RejectionCost(3, 0), 1) {
		t.Error("zero-angle cone should have infinite rejection cost")
	}
}

// Determinism: same seed, same stream.
func TestSamplersDeterministic(t *testing.T) {
	cone, _ := geom.NewCone(geom.Vector{1, 1, 1}, 0.3)
	a, _ := NewCap(cone, rand.New(rand.NewSource(99)))
	b, _ := NewCap(cone, rand.New(rand.NewSource(99)))
	for i := 0; i < 50; i++ {
		wa, _ := a.Sample()
		wb, _ := b.Sample()
		if !wa.Equal(wb, 0) {
			t.Fatal("cap sampler not deterministic for fixed seed")
		}
	}
}
