package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/geom"
)

func TestInteriorPointSimpleCone(t *testing.T) {
	// Cone w1 >= w2 in 2D: interior points have w1 > w2.
	x, err := InteriorPoint(2, []geom.Vector{{1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] <= x[1] {
		t.Errorf("interior point %v not strictly inside w1 >= w2", x)
	}
	if !almostEqual(x[0]+x[1], 1, 1e-8) {
		t.Errorf("interior point not on sum=1: %v", x)
	}
}

func TestInteriorPointEmptyCone(t *testing.T) {
	// w1 >= w2 + margin and w2 >= w1 + margin cannot both hold; encode as
	// strict-interior emptiness: the two opposing halfspaces leave only the
	// measure-zero line w1 = w2.
	_, err := InteriorPoint(2, []geom.Vector{{1, -1}, {-1, 1}})
	if !errors.Is(err, ErrEmptyCone) {
		t.Errorf("expected ErrEmptyCone, got %v", err)
	}
}

func TestInteriorPointFullSpace(t *testing.T) {
	x, err := InteriorPoint(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v <= 0 {
			t.Errorf("interior point %v touches the orthant boundary", x)
		}
	}
}

func TestInteriorPointSatisfiesAllConstraints(t *testing.T) {
	rr := rand.New(rand.NewSource(82))
	for trial := 0; trial < 100; trial++ {
		d := 2 + rr.Intn(4)
		// Random halfspaces through a known interior point p, so the cone is
		// nonempty by construction.
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = rr.Float64() + 0.1
		}
		var normals []geom.Vector
		for k := 0; k < 1+rr.Intn(5); k++ {
			n := make(geom.Vector, d)
			for j := range n {
				n[j] = rr.NormFloat64()
			}
			if n.Dot(p) < 0 {
				n = n.Scale(-1)
			}
			normals = append(normals, n)
		}
		x, err := InteriorPoint(d, normals)
		if errors.Is(err, ErrEmptyCone) {
			continue // p may sit on a near-degenerate sliver; fine
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range normals {
			if n.Dot(x) < -1e-9 {
				t.Fatalf("interior point %v violates constraint %v", x, n)
			}
		}
	}
}

func TestHyperplaneIntersects(t *testing.T) {
	// Cone: full 2D orthant. The hyperplane w1 = w2 passes through it.
	ok, err := HyperplaneIntersects(2, geom.Hyperplane{Normal: geom.Vector{1, -1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("diagonal hyperplane should cross the orthant")
	}
	// Cone restricted to w1 >= 2 w2: the hyperplane w1 = w2 misses its
	// interior.
	ok, err = HyperplaneIntersects(2, geom.Hyperplane{Normal: geom.Vector{1, -1}},
		[]geom.Vector{{1, -2}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("hyperplane w1=w2 should miss the cone w1 >= 2 w2")
	}
	// Degenerate hyperplane.
	ok, err = HyperplaneIntersects(2, geom.Hyperplane{Normal: geom.Vector{0, 0}}, nil)
	if err != nil || ok {
		t.Errorf("degenerate hyperplane: ok=%v err=%v", ok, err)
	}
}

func TestHyperplaneIntersectsAgainstSampling(t *testing.T) {
	// Cross-validate the LP test against a dense angular scan in 2D.
	rr := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		// Random cone [lo, hi] inside the quadrant, expressed as halfspaces.
		lo := rr.Float64() * 1.2
		hi := lo + 0.05 + rr.Float64()*(1.5-lo-0.05)
		if hi > math.Pi/2 {
			hi = math.Pi / 2
		}
		normals := []geom.Vector{
			{-math.Sin(lo), math.Cos(lo)}, // angle >= lo
			{math.Sin(hi), -math.Cos(hi)}, // angle <= hi
		}
		ha := rr.Float64() * math.Pi / 2
		h := geom.Hyperplane{Normal: geom.Vector{-math.Sin(ha), math.Cos(ha)}} // boundary ray at angle ha
		got, err := HyperplaneIntersects(2, h, normals)
		if err != nil {
			t.Fatal(err)
		}
		want := ha > lo+1e-6 && ha < hi-1e-6
		if got != want && math.Abs(ha-lo) > 1e-4 && math.Abs(ha-hi) > 1e-4 {
			t.Fatalf("trial %d: lo=%v hi=%v ha=%v: got %v want %v", trial, lo, hi, ha, got, want)
		}
	}
}
