package twod

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
)

func fullU() geom.Interval2D { return geom.Interval2D{Lo: 0, Hi: math.Pi / 2} }

func randDataset(rr *rand.Rand, n int) *dataset.Dataset {
	ds := dataset.MustNew(2)
	for i := 0; i < n; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64())
	}
	return ds
}

// bruteForceRegions scans the interval at fine resolution and returns the
// distinct rankings and approximate spans found.
func bruteForceRegions(ds *dataset.Dataset, iv geom.Interval2D, steps int) map[string]float64 {
	spans := make(map[string]float64)
	dt := iv.Width() / float64(steps)
	for i := 0; i < steps; i++ {
		theta := iv.Lo + (float64(i)+0.5)*dt
		key := rank.Compute(ds, geom.Ray2D(theta)).Key()
		spans[key] += dt
	}
	return spans
}

func TestExchangeAngle(t *testing.T) {
	// Equation 6 for t1, t4 of Figure 1.
	a := geom.Vector{0.63, 0.71}
	b := geom.Vector{0.70, 0.68}
	theta, ok := ExchangeAngle(a, b)
	if !ok {
		t.Fatal("exchange expected")
	}
	want := math.Atan((0.70 - 0.63) / (0.71 - 0.68))
	if math.Abs(theta-want) > 1e-12 {
		t.Errorf("theta = %v, want %v", theta, want)
	}
	// At the exchange ray both items score equally.
	w := geom.Ray2D(theta)
	if math.Abs(w.Dot(a)-w.Dot(b)) > 1e-12 {
		t.Error("scores differ at the exchange angle")
	}
	// Dominance: no exchange.
	if _, ok := ExchangeAngle(geom.Vector{2, 2}, geom.Vector{1, 1}); ok {
		t.Error("dominated pair reported an exchange")
	}
	if _, ok := ExchangeAngle(geom.Vector{1, 1}, geom.Vector{1, 1}); ok {
		t.Error("identical pair reported an exchange")
	}
	if _, ok := ExchangeAngle(geom.Vector{1, 2}, geom.Vector{1, 1}); ok {
		t.Error("equal-x pair reported an exchange")
	}
}

func TestRaySweepFigure1(t *testing.T) {
	// Figure 1c: the sample database has exactly 11 ranking regions over U.
	ds := dataset.Figure1()
	regions, err := RaySweep(ds, fullU())
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 11 {
		t.Fatalf("got %d regions, want 11 (Figure 1c)", len(regions))
	}
	// Stabilities sum to 1 and regions tile the quadrant contiguously.
	var sum float64
	prev := 0.0
	for _, r := range regions {
		sum += r.Stability
		if math.Abs(r.Interval.Lo-prev) > 1e-9 {
			t.Errorf("gap before region at %v", r.Interval.Lo)
		}
		prev = r.Interval.Hi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stabilities sum to %v", sum)
	}
	if math.Abs(prev-math.Pi/2) > 1e-9 {
		t.Errorf("last region ends at %v", prev)
	}
	// The region containing pi/4 induces the Figure 1 ranking.
	for _, r := range regions {
		if r.Interval.Lo <= math.Pi/4 && math.Pi/4 <= r.Interval.Hi {
			got := rank.Compute(ds, r.Midpoint())
			want := []int{1, 3, 2, 4, 0}
			if !got.Equal(rank.Ranking{Order: want}) {
				t.Errorf("pi/4 region ranking = %v, want %v", got.Order, want)
			}
		}
	}
}

func TestRaySweepMatchesBruteForce(t *testing.T) {
	rr := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		ds := randDataset(rr, 3+rr.Intn(12))
		regions, err := RaySweep(ds, fullU())
		if err != nil {
			t.Fatal(err)
		}
		brute := bruteForceRegions(ds, fullU(), 40000)
		// Every region's ranking must match the brute-force span.
		var total float64
		for _, r := range regions {
			key := rank.Compute(ds, r.Midpoint()).Key()
			span, ok := brute[key]
			if !ok {
				t.Fatalf("trial %d: swept region %v not found by scan", trial, r.Interval)
			}
			if math.Abs(span-r.Interval.Width()) > 3e-3 {
				t.Fatalf("trial %d: span mismatch for %s: %v vs %v", trial, key, r.Interval.Width(), span)
			}
			total += r.Stability
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("trial %d: stabilities sum to %v", trial, total)
		}
		if len(regions) != len(brute) {
			t.Fatalf("trial %d: %d regions vs %d brute-force rankings", trial, len(regions), len(brute))
		}
	}
}

func TestRaySweepSubInterval(t *testing.T) {
	rr := rand.New(rand.NewSource(92))
	ds := randDataset(rr, 20)
	iv, _ := geom.NewInterval2D(0.3, 0.8)
	regions, err := RaySweep(ds, iv)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range regions {
		if r.Interval.Lo < iv.Lo-1e-12 || r.Interval.Hi > iv.Hi+1e-12 {
			t.Errorf("region %v outside interval", r.Interval)
		}
		sum += r.Stability
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stabilities sum to %v", sum)
	}
	// Brute force may miss slivers narrower than its resolution; require
	// that every brute-force ranking is found and that wide swept regions
	// are confirmed by the scan.
	brute := bruteForceRegions(ds, iv, 20000)
	if len(regions) < len(brute) {
		t.Errorf("%d regions < %d brute-force rankings", len(regions), len(brute))
	}
	dt := iv.Width() / 20000
	for _, r := range regions {
		key := rank.Compute(ds, r.Midpoint()).Key()
		if _, ok := brute[key]; !ok && r.Interval.Width() > 5*dt {
			t.Errorf("wide swept region %v missing from scan", r.Interval)
		}
	}
}

func TestRaySweepEdgeCases(t *testing.T) {
	if _, err := RaySweep(dataset.MustNew(2), fullU()); !errors.Is(err, dataset.ErrEmptyDataset) {
		t.Errorf("empty dataset error = %v", err)
	}
	one := dataset.MustNew(2)
	one.MustAdd("a", 0.5, 0.5)
	regions, err := RaySweep(one, fullU())
	if err != nil || len(regions) != 1 || regions[0].Stability != 1 {
		t.Errorf("singleton: %v, %v", regions, err)
	}
	three := dataset.MustNew(3)
	three.MustAdd("a", 1, 2, 3)
	if _, err := RaySweep(three, fullU()); err == nil {
		t.Error("3D dataset accepted")
	}
	// All-dominated chain: a single region.
	chain := dataset.MustNew(2)
	chain.MustAdd("a", 3, 3)
	chain.MustAdd("b", 2, 2)
	chain.MustAdd("c", 1, 1)
	regions, err = RaySweep(chain, fullU())
	if err != nil || len(regions) != 1 {
		t.Errorf("dominance chain: %d regions, err %v", len(regions), err)
	}
}

func TestRaySweepDuplicateItems(t *testing.T) {
	ds := dataset.MustNew(2)
	ds.MustAdd("a", 0.5, 0.5)
	ds.MustAdd("b", 0.5, 0.5)
	ds.MustAdd("c", 0.9, 0.1)
	regions, err := RaySweep(ds, fullU())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range regions {
		sum += r.Stability
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stabilities sum to %v", sum)
	}
}

func TestVerifyFigure1(t *testing.T) {
	ds := dataset.Figure1()
	r := rank.Compute(ds, geom.Vector{1, 1})
	res, err := Verify(ds, r, fullU())
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the swept region containing pi/4.
	regions, _ := RaySweep(ds, fullU())
	for _, reg := range regions {
		if reg.Interval.Lo <= math.Pi/4 && math.Pi/4 <= reg.Interval.Hi {
			if math.Abs(res.Stability-reg.Stability) > 1e-9 {
				t.Errorf("Verify stability %v != swept %v", res.Stability, reg.Stability)
			}
			if math.Abs(res.Region.Lo-reg.Interval.Lo) > 1e-9 ||
				math.Abs(res.Region.Hi-reg.Interval.Hi) > 1e-9 {
				t.Errorf("Verify region %+v != swept %+v", res.Region, reg.Interval)
			}
		}
	}
}

func TestVerifyMatchesSweepEverywhere(t *testing.T) {
	rr := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		ds := randDataset(rr, 3+rr.Intn(10))
		regions, err := RaySweep(ds, fullU())
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range regions {
			r := rank.Compute(ds, reg.Midpoint())
			res, err := Verify(ds, r, fullU())
			if err != nil {
				t.Fatalf("trial %d: Verify(%v): %v", trial, r.Order, err)
			}
			if math.Abs(res.Stability-reg.Stability) > 1e-9 {
				t.Fatalf("trial %d: stability %v vs %v", trial, res.Stability, reg.Stability)
			}
		}
	}
}

func TestVerifyInfeasible(t *testing.T) {
	ds := dataset.Figure1()
	// Reverse of a feasible ranking puts dominated t1 above its dominator...
	// construct directly: t4 dominates t1? t4=(0.70,0.68), t1=(0.63,0.71):
	// no. Use a crafted pair: t2=(0.83,0.65) vs t4=(0.70,0.68): incomparable.
	// A ranking placing t3 above t5 and t5 above t3 cannot both hold; instead
	// test with a dominated pair: add one.
	ds2 := dataset.MustNew(2)
	ds2.MustAdd("hi", 0.9, 0.9)
	ds2.MustAdd("lo", 0.1, 0.1)
	bad := rank.Ranking{Order: []int{1, 0}}
	if _, err := Verify(ds2, bad, fullU()); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("dominated-above ranking error = %v", err)
	}
	// Crossed bounds: a permutation of Figure 1 that needs incompatible
	// angle ranges.
	impossible := rank.Ranking{Order: []int{0, 1, 2, 3, 4}}
	if _, err := Verify(ds, impossible, fullU()); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("crossed-bounds ranking error = %v", err)
	}
	// Wrong length.
	if _, err := Verify(ds, rank.Ranking{Order: []int{0, 1}}, fullU()); err == nil {
		t.Error("short ranking accepted")
	}
}

func TestVerifyTiedItems(t *testing.T) {
	ds := dataset.MustNew(2)
	ds.MustAdd("a", 0.5, 0.5)
	ds.MustAdd("b", 0.5, 0.5)
	// Tie-break order (a before b) is feasible with stability 1.
	res, err := Verify(ds, rank.Ranking{Order: []int{0, 1}}, fullU())
	if err != nil || math.Abs(res.Stability-1) > 1e-12 {
		t.Errorf("tie-consistent ranking: %v, %v", res, err)
	}
	// Reversed tie order can never be produced by the deterministic
	// tie-break.
	if _, err := Verify(ds, rank.Ranking{Order: []int{1, 0}}, fullU()); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("tie-inconsistent ranking error = %v", err)
	}
}

func TestVerifyRestrictedInterval(t *testing.T) {
	ds := dataset.Figure1()
	iv, _ := geom.NewInterval2D(0.5, 1.0)
	r := rank.Compute(ds, geom.Ray2D(0.75))
	res, err := Verify(ds, r, iv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Region.Lo < iv.Lo-1e-12 || res.Region.Hi > iv.Hi+1e-12 {
		t.Errorf("region %+v escapes the interval", res.Region)
	}
	// A ranking whose region lies entirely below the interval is infeasible
	// inside it. The Figure 1 ranking at angle 0.05 has region [0, ~0.62],
	// so test against [1.2, 1.5].
	high, _ := geom.NewInterval2D(1.2, 1.5)
	outside := rank.Compute(ds, geom.Ray2D(0.05))
	if _, err := Verify(ds, outside, high); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("outside ranking error = %v", err)
	}
}

func TestEnumeratorOrderAndExhaustion(t *testing.T) {
	rr := rand.New(rand.NewSource(94))
	ds := randDataset(rr, 15)
	e, err := NewEnumerator(ds, fullU())
	if err != nil {
		t.Fatal(err)
	}
	total := e.Remaining()
	var prev float64 = 2
	seen := make(map[string]bool)
	count := 0
	for {
		res, err := e.Next()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		if res.Stability > prev+1e-12 {
			t.Fatalf("stability not non-increasing: %v after %v", res.Stability, prev)
		}
		prev = res.Stability
		key := res.Ranking.Key()
		if seen[key] {
			t.Fatalf("duplicate ranking %s (violates Theorem 1)", key)
		}
		seen[key] = true
	}
	if count != total {
		t.Errorf("enumerated %d, expected %d", count, total)
	}
	if _, err := e.Next(); !errors.Is(err, ErrExhausted) {
		t.Error("exhausted enumerator should keep returning ErrExhausted")
	}
}

// The number of feasible rankings is far below n! and bounded by the number
// of exchanges + 1.
func TestRegionCountBound(t *testing.T) {
	rr := rand.New(rand.NewSource(96))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rr.Intn(20)
		ds := randDataset(rr, n)
		regions, err := RaySweep(ds, fullU())
		if err != nil {
			t.Fatal(err)
		}
		maxRegions := n*(n-1)/2 + 1
		if len(regions) > maxRegions {
			t.Fatalf("%d regions exceeds bound %d", len(regions), maxRegions)
		}
	}
}
