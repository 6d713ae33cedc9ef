// Package md implements the multi-dimensional (d > 2) stability machinery of
// Sections 4 and 5: stability verification from ordering-exchange halfspaces
// (SV, Algorithm 4), discovery of the exchange hyperplanes crossing a region
// of interest (×hps, Algorithm 5), the delayed arrangement construction
// behind GET-NEXTmd (Algorithm 6) with the sample-partitioning intersection
// test of Section 5.4, the Monte-Carlo stability oracle (Algorithm 12), and
// the full-arrangement baseline the paper argues against (kept for the
// ablation benchmarks).
package md

import (
	"context"
	"errors"
	"fmt"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
	"stablerank/internal/vecmat"
)

// ErrInfeasibleRanking is returned by VerifyMatrix when the ranking cannot be
// generated by any scoring function (a lower-ranked item dominates a
// higher-ranked one).
var ErrInfeasibleRanking = errors.New("md: ranking is not achievable by any scoring function")

// ErrExhausted is returned by Engine.Next when every region has been
// reported.
var ErrExhausted = errors.New("md: no further ranking regions")

// ErrNoSamples is returned when an operation requires a non-empty sample set.
var ErrNoSamples = errors.New("md: empty sample set")

// StabilityOracle estimates the stability of a region given as oriented
// halfspaces (Algorithm 12): the fraction of the region-of-interest samples
// (the rows of pool) satisfying every constraint. Cost
// O(|constraints| * |samples|); the sweep runs over a flat contiguous copy
// of the constraints.
func StabilityOracle(constraints []geom.Halfspace, pool vecmat.Matrix) float64 {
	if pool.Rows() == 0 {
		return 0
	}
	count, _ := countInside(context.Background(), orientedConstraints(constraints, pool.Stride()), pool) //srlint:ctxflow synchronous one-pass sweep over a caller-provided pool; nothing to cancel
	return float64(count) / float64(pool.Rows())
}

// orientedConstraints flattens a halfspace set into one contiguous matrix
// of normals oriented so that membership is normal . w >= 0 for every row.
// A sample is inside a negative halfspace (normal . w <= 0) iff the negated
// normal's dot is >= 0 — exactly, since float negation is exact — so the
// flat kernel needs no per-row orientation branch.
func orientedConstraints(cs []geom.Halfspace, d int) vecmat.Matrix {
	m := vecmat.New(len(cs), d)
	for i, hs := range cs {
		if len(hs.Normal) != d {
			panic(fmt.Sprintf("md: constraint %d has dimension %d, want %d", i, len(hs.Normal), d))
		}
		row := m.Row(i)
		copy(row, hs.Normal)
		if !hs.Positive {
			for k := range row {
				row[k] = -row[k]
			}
		}
	}
	return m
}

// countInside is the oracle's counting loop, shared with VerifyMatrix; it polls
// ctx every 4096 rows so long sweeps stay cancellable.
func countInside(ctx context.Context, constraints, pool vecmat.Matrix) (int, error) {
	count := 0
	rows := pool.Rows()
	for lo := 0; lo < rows; lo += 4096 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		count += constraints.CountInside(pool, lo, min(lo+4096, rows))
	}
	return count, nil
}

// VerifyResult is the outcome of multi-dimensional stability verification.
type VerifyResult struct {
	// Stability is the Monte-Carlo estimate of the fraction of the region of
	// interest generating the ranking.
	Stability float64
	// Constraints is the ranking region: the intersection of the positive
	// halfspaces of adjacent-pair ordering exchanges (within the region of
	// interest).
	Constraints []geom.Halfspace
	// SampleCount is the number of samples used by the oracle.
	SampleCount int
}

// VerifyMatrix computes the region of ranking r as ordering-exchange
// halfspaces and estimates its stability against the region-of-interest
// samples in a contiguous row-major matrix (stride = the dataset dimension):
// SV, Algorithm 4, in O(n + n|samples|). The oracle sweep is a flat batched
// kernel with zero allocations per sample; cancelling ctx aborts it with
// the context's error.
func VerifyMatrix(ctx context.Context, ds *dataset.Dataset, r rank.Ranking, pool vecmat.Matrix) (VerifyResult, error) {
	cons, constraints, err := rankingRegionMatrix(ds, r)
	if err != nil {
		return VerifyResult{}, err
	}
	if pool.Rows() == 0 {
		return VerifyResult{}, ErrNoSamples
	}
	count, err := countInside(ctx, cons, pool)
	if err != nil {
		return VerifyResult{}, err
	}
	return VerifyResult{
		Stability:   float64(count) / float64(pool.Rows()),
		Constraints: constraints,
		SampleCount: pool.Rows(),
	}, nil
}

// ConstraintMatrix returns ranking r's region as both the contiguous
// oriented constraint matrix the flat counting kernels sweep and the API
// halfspace form (row views into the matrix). It is the entry point the
// fused query planner shares with VerifyMatrix, and returns
// ErrInfeasibleRanking exactly when it would.
func ConstraintMatrix(ds *dataset.Dataset, r rank.Ranking) (vecmat.Matrix, []geom.Halfspace, error) {
	return rankingRegionMatrix(ds, r)
}

// RankingRegion returns the halfspace description of the region of r: for
// each adjacent pair (t, t') of the ranking, the positive halfspace of the
// ordering exchange sum_k (t[k]-t'[k]) x_k > 0 (Equation 7), with dominated
// pairs skipped. It returns ErrInfeasibleRanking when a later item dominates
// an earlier one.
func RankingRegion(ds *dataset.Dataset, r rank.Ranking) ([]geom.Halfspace, error) {
	_, constraints, err := rankingRegionMatrix(ds, r)
	return constraints, err
}

// rankingRegionMatrix is RankingRegion building the exchange normals
// directly into one contiguous row-major matrix — the form the flat
// counting kernels sweep. Every constraint is a positive halfspace, so the
// matrix doubles as the oriented constraint matrix; the returned halfspaces
// (the API form) hold row views into it rather than one small allocation
// per pair.
func rankingRegionMatrix(ds *dataset.Dataset, r rank.Ranking) (vecmat.Matrix, []geom.Halfspace, error) {
	if len(r.Order) != ds.N() {
		return vecmat.Matrix{}, nil, fmt.Errorf("md: ranking has %d items, dataset has %d", len(r.Order), ds.N())
	}
	d := ds.D()
	data := make([]float64, 0, max(len(r.Order)-1, 0)*d)
	for i := 0; i+1 < len(r.Order); i++ {
		t := ds.Item(r.Order[i])
		u := ds.Item(r.Order[i+1])
		if equalAttrs(t.Attrs, u.Attrs) {
			if r.Order[i] > r.Order[i+1] {
				return vecmat.Matrix{}, nil, ErrInfeasibleRanking // violates deterministic tie-break
			}
			continue
		}
		if dataset.Dominates(t, u) {
			continue
		}
		if dataset.Dominates(u, t) {
			return vecmat.Matrix{}, nil, ErrInfeasibleRanking
		}
		// The ordering-exchange normal t.Attrs - u.Attrs, appended in place
		// (geom.OrderingExchange with the allocation amortized away).
		for j := 0; j < d; j++ {
			data = append(data, t.Attrs[j]-u.Attrs[j])
		}
	}
	m, err := vecmat.FromData(d, data)
	if err != nil {
		return vecmat.Matrix{}, nil, err
	}
	var constraints []geom.Halfspace
	if m.Rows() > 0 {
		constraints = make([]geom.Halfspace, m.Rows())
		for i := range constraints {
			constraints[i] = geom.Halfspace{Normal: geom.Vector(m.Row(i)), Positive: true}
		}
	}
	return m, constraints, nil
}

func equalAttrs(a, b geom.Vector) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ExchangeHyperplanes implements ×hps (Algorithm 5): the ordering-exchange
// hyperplanes of all non-dominating item pairs that can intersect the region
// of interest. For hypercone regions the cheap exact cap test filters
// hyperplanes; for other regions every non-dominating pair is returned (the
// sample-partition test in the engine discards non-crossing hyperplanes
// lazily). The result is O(n^2) in the worst case.
func ExchangeHyperplanes(ds *dataset.Dataset, roi geom.Region) []geom.Hyperplane {
	n := ds.N()
	cone, hasCone := roi.(geom.Cone)
	var hps []geom.Hyperplane
	for i := 0; i < n; i++ {
		ti := ds.Item(i)
		for j := i + 1; j < n; j++ {
			tj := ds.Item(j)
			if dataset.Dominates(ti, tj) || dataset.Dominates(tj, ti) {
				continue
			}
			h := geom.OrderingExchange(ti.Attrs, tj.Attrs)
			if h.IsDegenerate() {
				continue
			}
			if hasCone && !h.MayIntersectCone(cone.Axis, cone.Theta) {
				continue
			}
			hps = append(hps, h)
		}
	}
	return hps
}
