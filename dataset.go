package stablerank

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
)

// Dataset is a catalog of items, each scored on D non-negative attributes
// where larger is better. Its methods (Add, Skyline, Project, Normalize,
// WriteCSV, ...) carry over from the underlying implementation; the zero
// value is not usable — construct with NewDataset, ReadCSV or a generator.
type Dataset = dataset.Dataset

// Item is one catalog entry: an identifier plus its attribute vector.
type Item = dataset.Item

// NewDataset returns an empty dataset with d scoring attributes (d >= 1).
func NewDataset(d int) (*Dataset, error) { return dataset.New(d) }

// MustDataset is NewDataset, panicking on error; for tests and fixtures.
func MustDataset(d int) *Dataset { return dataset.MustNew(d) }

// ReadCSV parses a dataset from CSV: first column item id, remaining columns
// scoring attributes (already normalized so larger is better).
func ReadCSV(r io.Reader, hasHeader bool) (*Dataset, error) {
	return dataset.ReadCSV(r, hasHeader)
}

// Figure1 returns the five-candidate example database of the paper's
// Figure 1, handy for experiments and documentation.
func Figure1() *Dataset { return dataset.Figure1() }

// Ranking is a total order of a dataset's items, best first. It compares
// with Equal, summarizes with Describe, and locates items with PositionOf.
type Ranking = rank.Ranking

// RankingOf returns the ranking the weight vector induces on ds, the
// nabla_f(D) operator.
func RankingOf(ds *Dataset, weights []float64) Ranking {
	return rank.Compute(ds, geom.NewVector(weights...))
}

// ParseWeights parses a comma-separated weight vector of dimension d — the
// textual form the CLI flags and the HTTP query parameters share. Every
// component must be a finite number; surrounding whitespace is tolerated.
func ParseWeights(s string, d int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("stablerank: weights list has %d values, dataset has %d attributes", len(parts), d)
	}
	w := make([]float64, d)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("stablerank: bad weight %q", p)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stablerank: weight %q is not finite", p)
		}
		w[i] = v
	}
	return w, nil
}

// KendallTau returns the number of discordant item pairs between two
// rankings of the same dataset.
func KendallTau(a, b Ranking) (int, error) { return rank.KendallTau(a, b) }

// KendallTauNormalized is KendallTau divided by the number of item pairs,
// in [0, 1].
func KendallTauNormalized(a, b Ranking) (float64, error) { return rank.KendallTauNormalized(a, b) }

// SpearmanFootrule returns the total positional displacement between two
// rankings of the same dataset.
func SpearmanFootrule(a, b Ranking) (int, error) { return rank.SpearmanFootrule(a, b) }

// MaxDisplacement returns the item that moves the most positions between two
// rankings, with its displacement.
func MaxDisplacement(a, b Ranking) (item, delta int, err error) { return rank.MaxDisplacement(a, b) }
