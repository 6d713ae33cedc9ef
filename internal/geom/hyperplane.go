package geom

import "math"

// Hyperplanes and halfspaces through the origin. Ordering exchanges
// (Equation 7 of the paper) are hyperplanes of this form: the set of scoring
// functions assigning equal score to two items. Each such hyperplane splits
// the function space into the halfspace where the first item outranks the
// second and the halfspace where the order is reversed.

// Hyperplane is a hyperplane through the origin with the given normal:
// {x : Normal . x = 0}.
type Hyperplane struct {
	Normal Vector
}

// OrderingExchange returns the ordering-exchange hyperplane of two item
// attribute vectors a and b: the functions w with w.(a-b) = 0 score the items
// equally. On the positive side of the returned hyperplane, a outranks b.
func OrderingExchange(a, b Vector) Hyperplane {
	return Hyperplane{Normal: a.Sub(b)}
}

// Eval returns Normal . w, the signed (unnormalized) position of w relative
// to the hyperplane.
func (h Hyperplane) Eval(w Vector) float64 { return h.Normal.Dot(w) }

// IsDegenerate reports whether the normal is numerically zero, which happens
// for ordering exchanges between items with identical attribute vectors.
func (h Hyperplane) IsDegenerate() bool { return h.Normal.Norm() < Eps }

// MayIntersectCone reports whether the hyperplane can intersect the cone of
// unit rays within angle theta of axis. The test is exact for the full cap
// (ignoring any orthant restriction): the hyperplane meets the cap iff the
// angular distance from the axis to the plane is at most theta, i.e.
// |cos(angle(axis, normal))| <= sin(theta). A true result may still be
// filtered out later by the exact intersection tests; a false result is
// definitive.
func (h Hyperplane) MayIntersectCone(axis Vector, theta float64) bool {
	c, err := CosineSimilarity(axis, h.Normal)
	if err != nil {
		return false // degenerate hyperplane intersects nothing meaningfully
	}
	return math.Abs(c) <= math.Sin(theta)+Eps
}

// Halfspace is one side of an origin hyperplane: {x : Normal . x >= 0}
// (Positive true) or {x : Normal . x <= 0} (Positive false). Region
// membership treats the boundary as included; the boundary has measure zero
// under the stability measure so strictness does not affect volumes.
type Halfspace struct {
	Normal   Vector
	Positive bool
}

// PositiveHalf returns the halfspace Normal . x >= 0 of h.
func (h Hyperplane) PositiveHalf() Halfspace { return Halfspace{Normal: h.Normal, Positive: true} }

// NegativeHalf returns the halfspace Normal . x <= 0 of h.
func (h Hyperplane) NegativeHalf() Halfspace { return Halfspace{Normal: h.Normal, Positive: false} }

// Contains reports whether w lies in the halfspace, with tolerance tol on
// the boundary.
func (hs Halfspace) Contains(w Vector, tol float64) bool {
	v := hs.Normal.Dot(w)
	if hs.Positive {
		return v >= -tol
	}
	return v <= tol
}

// Oriented returns the halfspace's normal oriented so that membership is
// Normal . x >= 0; i.e. it negates the normal of a non-positive halfspace.
func (hs Halfspace) Oriented() Vector {
	if hs.Positive {
		return hs.Normal
	}
	return hs.Normal.Scale(-1)
}
