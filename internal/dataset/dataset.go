// Package dataset implements the data model of Section 2.1.1: a fixed
// database of n items, each a d-length vector of scoring attributes,
// together with the preprocessing the paper assumes (min-max normalization
// with per-attribute preference direction, variance standardization),
// dominance tests, the skyline operator used for comparison in Section
// 2.2.5, and CSV input/output for the command-line tools.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"stablerank/internal/geom"
	"stablerank/internal/vecmat"
)

// Item is a database item: an identifier plus its d scoring attributes.
// Non-scoring attributes are outside the model's concern (Section 2.1.1).
type Item struct {
	ID    string
	Attrs geom.Vector
}

// Dataset is an immutable-after-build collection of items sharing a common
// attribute dimension: the n x d attribute table every scoring function
// w . x reads, stored as one row-major array (row i holds item i's
// attributes) beside the item identifiers.
type Dataset struct {
	d    int
	ids  []string
	data []float64 // len(ids) rows of stride d
}

// New returns an empty dataset over d scoring attributes. d must be >= 1
// (the algorithms themselves require >= 2; 1 is permitted so projections can
// be built incrementally).
func New(d int) (*Dataset, error) {
	if d < 1 {
		return nil, fmt.Errorf("dataset: dimension %d < 1", d)
	}
	return &Dataset{d: d}, nil
}

// MustNew is New for statically-correct dimensions; it panics on error.
func MustNew(d int) *Dataset {
	ds, err := New(d)
	if err != nil {
		panic(err)
	}
	return ds
}

// Add appends an item, copying its attributes. The attribute vector must
// have the dataset dimension and contain only finite values (NaN or infinite
// attributes would poison every downstream score comparison silently).
func (ds *Dataset) Add(id string, attrs geom.Vector) error {
	if err := validAttrs(id, attrs, ds.d); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	ds.ids = append(ds.ids, id)
	ds.data = append(ds.data, attrs...)
	return nil
}

// validAttrs is the attribute contract of Add and the delta ops: the dataset
// dimension and only finite values.
func validAttrs(id string, attrs geom.Vector, d int) error {
	if len(attrs) != d {
		return fmt.Errorf("item %q has %d attributes, want %d", id, len(attrs), d)
	}
	for j, v := range attrs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("item %q attribute %d is not finite (%v)", id, j, v)
		}
	}
	return nil
}

// MustAdd is Add that panics on dimension mismatch, for fixtures.
func (ds *Dataset) MustAdd(id string, attrs ...float64) {
	if err := ds.Add(id, geom.Vector(attrs)); err != nil {
		panic(err)
	}
}

// N returns the number of items.
func (ds *Dataset) N() int { return len(ds.ids) }

// D returns the attribute dimension.
func (ds *Dataset) D() int { return ds.d }

// Item returns the i-th item (0-indexed insertion order); its Attrs is the
// row view Attrs(i) returns.
func (ds *Dataset) Item(i int) Item { return Item{ID: ds.ids[i], Attrs: ds.Attrs(i)} }

// Attrs returns the attribute vector of the i-th item as a view into the
// attribute table, without copying; callers must not modify it. Its capacity
// is pinned, so an append to it copies instead of overwriting item i+1.
func (ds *Dataset) Attrs(i int) geom.Vector {
	lo := i * ds.d
	return ds.data[lo : lo+ds.d : lo+ds.d]
}

// Matrix returns the attribute table as an n x d row-major matrix wrapping
// the dataset's array without copying: the operand every scoring sweep
// (rank.Computer, the fused plan sweep, the drift pass) reads. It is
// read-only; callers must not write through it.
func (ds *Dataset) Matrix() vecmat.Matrix {
	m, err := vecmat.FromData(ds.d, ds.data[:len(ds.data):len(ds.data)])
	if err != nil {
		panic(err) // unreachable: d >= 1 and every row has d values
	}
	return m
}

// Score returns the linear score w . attrs of item i (Definition 1).
func (ds *Dataset) Score(w geom.Vector, i int) float64 {
	return w.Dot(ds.Attrs(i))
}

// Clone returns a deep copy.
func (ds *Dataset) Clone() *Dataset {
	return &Dataset{d: ds.d, ids: slices.Clone(ds.ids), data: slices.Clone(ds.data)}
}

// Project returns a new dataset keeping only the first k attributes, the
// device the paper's experiments use to vary d over the Blue Nile data.
func (ds *Dataset) Project(k int) (*Dataset, error) {
	if k < 1 || k > ds.d {
		return nil, fmt.Errorf("dataset: cannot project %d attributes to %d", ds.d, k)
	}
	out := &Dataset{d: k, ids: slices.Clone(ds.ids), data: make([]float64, 0, ds.N()*k)}
	for i := range ds.ids {
		out.data = append(out.data, ds.Attrs(i)[:k]...)
	}
	return out, nil
}

// Head returns a new dataset containing (a copy of) the first n items.
func (ds *Dataset) Head(n int) (*Dataset, error) {
	if n < 0 || n > ds.N() {
		return nil, fmt.Errorf("dataset: head %d out of range [0, %d]", n, ds.N())
	}
	return &Dataset{d: ds.d, ids: slices.Clone(ds.ids[:n]), data: slices.Clone(ds.data[:n*ds.d])}, nil
}

// Dominates reports whether item a dominates item b (Section 3): a is at
// least as good on every attribute and strictly better on at least one,
// larger values preferred.
func Dominates(a, b Item) bool {
	strict := false
	for j := range a.Attrs {
		if b.Attrs[j] > a.Attrs[j] {
			return false
		}
		if a.Attrs[j] > b.Attrs[j] {
			strict = true
		}
	}
	return strict
}

// DominatesIdx reports whether item i dominates item j in the dataset.
func (ds *Dataset) DominatesIdx(i, j int) bool {
	return Dominates(ds.Item(i), ds.Item(j))
}

// ErrEmptyDataset is returned by operations requiring at least one item.
var ErrEmptyDataset = errors.New("dataset: empty dataset")

// AttrRange returns the min and max of attribute j across the dataset.
func (ds *Dataset) AttrRange(j int) (lo, hi float64, err error) {
	if ds.N() == 0 {
		return 0, 0, ErrEmptyDataset
	}
	if j < 0 || j >= ds.d {
		return 0, 0, fmt.Errorf("dataset: attribute %d out of range", j)
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for k := j; k < len(ds.data); k += ds.d {
		v := ds.data[k]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}

// Direction states whether larger or smaller raw values of an attribute are
// preferred, controlling the min-max transform of Section 6.1.
type Direction int

const (
	// HigherBetter normalizes v to (v-min)/(max-min).
	HigherBetter Direction = iota
	// LowerBetter normalizes v to (max-v)/(max-min), as the paper does for
	// diamond Price.
	LowerBetter
)

// derived returns an empty-valued dataset with ds's shape and a copy of its
// identifiers, for the transforms below to fill.
func (ds *Dataset) derived() *Dataset {
	return &Dataset{d: ds.d, ids: slices.Clone(ds.ids), data: make([]float64, len(ds.data))}
}

// Normalize returns a new dataset with every attribute min-max normalized to
// [0, 1] respecting the given preference directions (one per attribute, or
// nil meaning all HigherBetter). Constant attributes map to 0.
func (ds *Dataset) Normalize(dirs []Direction) (*Dataset, error) {
	if ds.N() == 0 {
		return nil, ErrEmptyDataset
	}
	if dirs != nil && len(dirs) != ds.d {
		return nil, fmt.Errorf("dataset: %d directions for %d attributes", len(dirs), ds.d)
	}
	lows := make([]float64, ds.d)
	spans := make([]float64, ds.d)
	for j := 0; j < ds.d; j++ {
		lo, hi, err := ds.AttrRange(j)
		if err != nil {
			return nil, err
		}
		lows[j] = lo
		spans[j] = hi - lo
	}
	out := ds.derived()
	for k, v := range ds.data {
		if j := k % ds.d; spans[j] > 0 {
			out.data[k] = (v - lows[j]) / spans[j]
			if dirs != nil && dirs[j] == LowerBetter {
				out.data[k] = 1 - out.data[k]
			}
		}
	}
	return out, nil
}

// Standardize returns a new dataset where each attribute has been scaled to
// unit standard deviation and then shifted so its minimum is zero — the
// "standardized to have equivalent variance" preprocessing of Section 2.1.1
// while keeping all values non-negative as the algorithms assume. Constant
// attributes map to 0.
func (ds *Dataset) Standardize() (*Dataset, error) {
	if ds.N() == 0 {
		return nil, ErrEmptyDataset
	}
	n := float64(ds.N())
	means := make([]float64, ds.d)
	for k, v := range ds.data {
		means[k%ds.d] += v
	}
	for j := range means {
		means[j] /= n
	}
	sds := make([]float64, ds.d)
	for k, v := range ds.data {
		d := v - means[k%ds.d]
		sds[k%ds.d] += d * d
	}
	for j := range sds {
		sds[j] = math.Sqrt(sds[j] / n)
	}
	out := ds.derived()
	mins := make([]float64, ds.d)
	for j := range mins {
		mins[j] = math.Inf(1)
	}
	for k, v := range ds.data {
		j := k % ds.d
		if sds[j] > 0 {
			out.data[k] = v / sds[j]
		}
		if out.data[k] < mins[j] {
			mins[j] = out.data[k]
		}
	}
	for k := range out.data {
		out.data[k] -= mins[k%ds.d]
	}
	return out, nil
}
