package lp

import (
	"errors"

	"stablerank/internal/geom"
)

// Cone-feasibility helpers built on the simplex core. Regions in the
// arrangement of ordering exchanges are convex cones
// {x >= 0 : n_i . x >= 0}; all the questions GET-NEXTmd asks about them
// reduce to linear programs after normalizing scale with sum(x) = 1. The
// sample-partition test of Section 5.4 remains the primary (and unbiased)
// mechanism; these LPs are the paper's "solve a linear program" alternative
// and are benchmarked as an ablation.

// interiorEps is the minimum max-min-slack for a cone to count as having a
// nonempty interior.
const interiorEps = 1e-9

// ErrEmptyCone is returned when a cone has no interior point.
var ErrEmptyCone = errors.New("lp: cone has empty interior")

// normalizeRows returns unit-norm copies of the normals, dropping numerically
// zero rows.
func normalizeRows(normals []geom.Vector) []geom.Vector {
	out := make([]geom.Vector, 0, len(normals))
	for _, n := range normals {
		if u, err := n.Normalize(); err == nil {
			out = append(out, u)
		}
	}
	return out
}

// chebyshevProblem builds: maximize eps subject to n_i . x >= eps,
// x_j >= eps (the orthant constraints, so the centre is generic rather than
// a boundary vertex), extra equality rows, sum(x) = 1, x >= 0, eps >= 0.
// Variables: x_0..x_{d-1}, eps.
func chebyshevProblem(d int, normals []geom.Vector, equalities []geom.Vector) Problem {
	nv := d + 1
	obj := make([]float64, nv)
	obj[d] = 1
	var cons []Constraint
	for _, n := range normalizeRows(normals) {
		c := make([]float64, nv)
		copy(c, n)
		c[d] = -1
		cons = append(cons, Constraint{Coeffs: c, Op: GE, RHS: 0})
	}
	for j := 0; j < d; j++ {
		c := make([]float64, nv)
		c[j] = 1
		c[d] = -1
		cons = append(cons, Constraint{Coeffs: c, Op: GE, RHS: 0})
	}
	for _, e := range equalities {
		c := make([]float64, nv)
		copy(c, e)
		cons = append(cons, Constraint{Coeffs: c, Op: EQ, RHS: 0})
	}
	sum := make([]float64, nv)
	for j := 0; j < d; j++ {
		sum[j] = 1
	}
	cons = append(cons, Constraint{Coeffs: sum, Op: EQ, RHS: 1})
	// eps <= 1 keeps the LP bounded even with no normals.
	capEps := make([]float64, nv)
	capEps[d] = 1
	cons = append(cons, Constraint{Coeffs: capEps, Op: LE, RHS: 1})
	return Problem{NumVars: nv, Objective: obj, Constraints: cons}
}

// InteriorPoint returns a point x (sum(x) = 1, x >= 0) strictly inside the
// cone {x : n . x >= 0 for n in normals}, maximizing the minimum slack
// against the unit-normalized constraints (a Chebyshev-style centre). It
// returns ErrEmptyCone if no interior point exists.
func InteriorPoint(d int, normals []geom.Vector) (geom.Vector, error) {
	res, err := Solve(chebyshevProblem(d, normals, nil))
	if err != nil {
		return nil, err
	}
	if res.Status != Optimal || res.Objective < interiorEps {
		return nil, ErrEmptyCone
	}
	return geom.Vector(res.X[:d]).Clone(), nil
}

// HyperplaneIntersects reports whether the hyperplane h (through the origin)
// passes through the interior of the cone {x >= 0 : n . x >= 0}: i.e.
// whether a point of the cone's interior lies exactly on h. This is the
// exact LP variant of the passThrough test in Algorithm 6.
func HyperplaneIntersects(d int, h geom.Hyperplane, normals []geom.Vector) (bool, error) {
	hn, err := h.Normal.Normalize()
	if err != nil {
		return false, nil // degenerate hyperplane: no crossing
	}
	res, err := Solve(chebyshevProblem(d, normals, []geom.Vector{hn}))
	if err != nil {
		return false, err
	}
	return res.Status == Optimal && res.Objective >= interiorEps, nil
}
