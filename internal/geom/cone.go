package geom

import (
	"errors"
	"fmt"
	"math"
)

// Regions of interest (Section 2.2.2). A producer restricts attention to an
// acceptable region U* of the function space, specified either as a
// hypercone around a reference weight vector (equivalently, a minimum cosine
// similarity) or as a convex cone cut out by linear constraints on the
// weights. Both are Region implementations; the whole space U (the
// non-negative orthant) is the special case FullSpace.

// Region is a subset of the function space. Membership is tested on weight
// vectors; implementations must be insensitive to positive scaling of w
// (regions are unions of rays).
type Region interface {
	// Contains reports whether the ray through w lies in the region.
	Contains(w Vector) bool
	// Dim returns the ambient dimension d.
	Dim() int
}

// FullSpace is the whole function space U: all rays in the non-negative
// orthant of R^d.
type FullSpace struct {
	D int
}

// Contains reports whether w has no significantly negative component.
func (f FullSpace) Contains(w Vector) bool { return w.NonNegative(Eps) }

// Dim returns the ambient dimension.
func (f FullSpace) Dim() int { return f.D }

// Cone is the set of rays within angle Theta of the unit Axis, intersected
// with the non-negative orthant. It corresponds to the "vector and angle
// distance" specification of an acceptable region: cosine similarity at
// least cos(Theta) with the reference function.
type Cone struct {
	Axis  Vector  // unit reference ray
	Theta float64 // half-angle in radians, in (0, pi/2]
}

// NewCone validates and constructs a Cone around the (not necessarily unit)
// reference weight vector, normalizing it.
func NewCone(axis Vector, theta float64) (Cone, error) {
	if theta <= 0 || theta > math.Pi/2 {
		return Cone{}, fmt.Errorf("geom: cone half-angle %v out of (0, pi/2]", theta)
	}
	u, err := axis.Normalize()
	if err != nil {
		return Cone{}, err
	}
	if !u.NonNegative(Eps) {
		return Cone{}, errors.New("geom: cone axis must lie in the non-negative orthant")
	}
	return Cone{Axis: u, Theta: theta}, nil
}

// NewConeFromCosine constructs a Cone from a minimum cosine similarity,
// e.g. 0.998 cosine similarity corresponds to Theta = acos(0.998).
func NewConeFromCosine(axis Vector, minCosine float64) (Cone, error) {
	if minCosine <= 0 || minCosine >= 1 {
		return Cone{}, fmt.Errorf("geom: minimum cosine %v out of (0, 1)", minCosine)
	}
	return NewCone(axis, math.Acos(minCosine))
}

// Contains reports whether the ray through w is within Theta of the axis and
// in the non-negative orthant.
func (c Cone) Contains(w Vector) bool {
	if !w.NonNegative(Eps) {
		return false
	}
	cos, err := CosineSimilarity(c.Axis, w)
	if err != nil {
		return false
	}
	return cos >= math.Cos(c.Theta)-Eps
}

// Dim returns the ambient dimension.
func (c Cone) Dim() int { return len(c.Axis) }

// ConstraintRegion is a convex cone given by a set of linear constraints on
// the weights (each a halfspace through the origin), intersected with the
// non-negative orthant. Example: {w2 <= w1} is Halfspace{Normal: (1,-1),
// Positive: true}.
type ConstraintRegion struct {
	D           int
	Constraints []Halfspace
}

// NewConstraintRegion validates dimensions and constructs the region.
func NewConstraintRegion(d int, constraints ...Halfspace) (ConstraintRegion, error) {
	if d < 2 {
		return ConstraintRegion{}, errors.New("geom: constraint region requires dimension >= 2")
	}
	for i, hs := range constraints {
		if len(hs.Normal) != d {
			return ConstraintRegion{}, fmt.Errorf("geom: constraint %d has dimension %d, want %d", i, len(hs.Normal), d)
		}
		if hs.Normal.Norm() < Eps {
			return ConstraintRegion{}, fmt.Errorf("geom: constraint %d has zero normal", i)
		}
	}
	return ConstraintRegion{D: d, Constraints: constraints}, nil
}

// Contains reports whether w satisfies every constraint and is in the
// non-negative orthant.
func (r ConstraintRegion) Contains(w Vector) bool {
	if !w.NonNegative(Eps) {
		return false
	}
	for _, hs := range r.Constraints {
		if !hs.Contains(w, Eps) {
			return false
		}
	}
	return true
}

// Dim returns the ambient dimension.
func (r ConstraintRegion) Dim() int { return r.D }

// OrientedNormals returns the constraint normals oriented so membership is
// Normal . w >= 0 for each, excluding the implicit orthant constraints.
func (r ConstraintRegion) OrientedNormals() []Vector {
	out := make([]Vector, len(r.Constraints))
	for i, hs := range r.Constraints {
		out[i] = hs.Oriented()
	}
	return out
}

// Interval2D describes a 2D region of interest as an angle range
// [Lo, Hi] within [0, pi/2], the representation used by the exact 2D
// algorithms (Section 3.2).
type Interval2D struct {
	Lo, Hi float64
}

// NewInterval2D validates the range.
func NewInterval2D(lo, hi float64) (Interval2D, error) {
	if lo < -Eps || hi > math.Pi/2+Eps || lo >= hi {
		return Interval2D{}, fmt.Errorf("geom: invalid 2D angle interval [%v, %v]", lo, hi)
	}
	return Interval2D{Lo: lo, Hi: hi}, nil
}

// Width returns the angular span of the interval.
func (iv Interval2D) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether the ray through the 2D vector w lies in the
// interval.
func (iv Interval2D) Contains(w Vector) bool {
	if len(w) != 2 || !w.NonNegative(Eps) {
		return false
	}
	a := Angle2D(w)
	return a >= iv.Lo-Eps && a <= iv.Hi+Eps
}

// Dim returns 2.
func (iv Interval2D) Dim() int { return 2 }

// Interval2DOf derives the 2D angle interval of a Region. Cones and
// Interval2D convert exactly; FullSpace maps to [0, pi/2]; constraint regions
// convert by intersecting the angle bounds implied by each 2D constraint.
func Interval2DOf(r Region) (Interval2D, error) {
	switch t := r.(type) {
	case Interval2D:
		return t, nil
	case FullSpace:
		if t.D != 2 {
			return Interval2D{}, fmt.Errorf("geom: full space has dimension %d, want 2", t.D)
		}
		return Interval2D{Lo: 0, Hi: math.Pi / 2}, nil
	case Cone:
		if t.Dim() != 2 {
			return Interval2D{}, fmt.Errorf("geom: cone has dimension %d, want 2", t.Dim())
		}
		mid := Angle2D(t.Axis)
		lo := math.Max(0, mid-t.Theta)
		hi := math.Min(math.Pi/2, mid+t.Theta)
		return NewInterval2D(lo, hi)
	case ConstraintRegion:
		if t.D != 2 {
			return Interval2D{}, fmt.Errorf("geom: constraint region has dimension %d, want 2", t.D)
		}
		lo, hi := 0.0, math.Pi/2
		for _, n := range t.OrientedNormals() {
			// The boundary n.w = 0 in 2D is the ray at angle
			// atan2(-n[0], n[1]) (where n.(cos a, sin a) = 0); the feasible
			// side is where n[0]cos a + n[1] sin a >= 0.
			b := math.Atan2(-n[0], n[1])
			// Normalize boundary into [0, pi) then clip.
			if b < 0 {
				b += math.Pi
			}
			if b > math.Pi/2 {
				// Boundary outside the quadrant: constraint either always or
				// never holds inside [0, pi/2]; test the midpoint.
				if n.Dot(Ray2D((lo+hi)/2)) < 0 {
					return Interval2D{}, errors.New("geom: empty 2D constraint region")
				}
				continue
			}
			// Decide which side of b is feasible by testing just above b.
			if n.Dot(Ray2D(math.Min(b+1e-9, math.Pi/2))) >= 0 {
				if b > lo {
					lo = b
				}
			} else {
				if b < hi {
					hi = b
				}
			}
		}
		return NewInterval2D(lo, hi)
	default:
		return Interval2D{}, fmt.Errorf("geom: cannot derive 2D interval from %T", r)
	}
}
