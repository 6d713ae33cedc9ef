// Package mc implements the randomized GET-NEXTr operators of Sections
// 4.3-4.5: Monte-Carlo enumeration of stable rankings by uniform sampling of
// the region of interest, with either a fixed sampling budget per call
// (Algorithm 7) or a fixed confidence error (Algorithm 8). Both variants
// support complete rankings and the two top-k semantics of Section 4.5.1
// (top-k sets and ranked top-k lists), which the exact multi-dimensional
// engine cannot handle because distinct ranking regions can share the same
// top-k.
package mc

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/stats"
)

// Mode selects the ranking semantics being counted.
type Mode int

const (
	// Complete counts full rankings of all items.
	Complete Mode = iota
	// TopKSet counts unordered top-k item sets.
	TopKSet
	// TopKRanked counts ordered top-k prefixes.
	TopKRanked
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Complete:
		return "complete"
	case TopKSet:
		return "top-k set"
	case TopKRanked:
		return "ranked top-k"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrExhausted is returned when no undiscovered ranking remains among the
// observations (Algorithm 7 returns null).
var ErrExhausted = errors.New("mc: no further rankings observed")

// ErrBudget is returned by the fixed-confidence operator when it cannot
// reach the requested error within its sample cap.
var ErrBudget = errors.New("mc: sample budget exhausted before reaching the requested confidence error")

// Result is one stable ranking discovered by the operator.
type Result struct {
	// Key identifies the ranking under the operator's mode.
	Key string
	// Items is the ranking (Complete) or top-k prefix (TopKRanked) or
	// canonical sorted set (TopKSet) as item indices.
	Items []int
	// Weights is a representative scoring function that induced the ranking
	// (the first sample observed for it).
	Weights geom.Vector
	// Stability is the Monte-Carlo stability estimate count/N.
	Stability float64
	// ConfidenceError is the half-width of the confidence interval around
	// Stability at the operator's confidence level (Equation 10).
	ConfidenceError float64
	// SamplesUsed is the number of fresh samples drawn by this call.
	SamplesUsed int
	// TotalSamples is the cumulative sample count across calls.
	TotalSamples int
}

// Operator is the stateful GET-NEXTr: it accumulates ranking observations
// across calls (Algorithms 7 and 8 both reuse previous aggregates) and
// remembers which rankings it has already returned. Observations are
// counted under interned 64-bit ranking hashes (collision-checked; see
// intern.go) with the sample vector and top-k scratch reused across draws,
// so the per-sample loop performs no allocations beyond first-seen
// rankings.
type Operator struct {
	ds       *dataset.Dataset
	sampler  sampling.Sampler
	computer *rank.Computer
	mode     Mode
	k        int
	alpha    float64

	table  *internTable
	total  int
	wbuf   geom.Vector // reusable sample buffer
	setbuf []int       // reusable sorted top-k set buffer
}

// Option configures an Operator.
type Option func(*Operator) error

// WithMode selects the ranking semantics (default Complete). k is required
// (>= 1) for the top-k modes and ignored for Complete.
func WithMode(mode Mode, k int) Option {
	return func(o *Operator) error {
		switch mode {
		case Complete:
		case TopKSet, TopKRanked:
			if k < 1 {
				return fmt.Errorf("mc: top-k mode requires k >= 1, got %d", k)
			}
		default:
			return fmt.Errorf("mc: unknown mode %d", int(mode))
		}
		o.mode = mode
		o.k = k
		return nil
	}
}

// WithConfidenceLevel sets 1-alpha for the reported confidence errors
// (default alpha = 0.05, i.e. 95% confidence).
func WithConfidenceLevel(alpha float64) Option {
	return func(o *Operator) error {
		if alpha <= 0 || alpha >= 1 {
			return fmt.Errorf("mc: alpha %v out of (0,1)", alpha)
		}
		o.alpha = alpha
		return nil
	}
}

// NewOperator builds a GET-NEXTr over ds sampling from the given sampler
// (use sampling.ForRegion for a region of interest).
func NewOperator(ds *dataset.Dataset, sampler sampling.Sampler, opts ...Option) (*Operator, error) {
	if ds == nil || ds.N() == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	if sampler == nil {
		return nil, errors.New("mc: nil sampler")
	}
	if sampler.Dim() != ds.D() {
		return nil, fmt.Errorf("mc: sampler dimension %d != dataset dimension %d", sampler.Dim(), ds.D())
	}
	o := &Operator{
		ds:       ds,
		sampler:  sampler,
		computer: rank.NewComputer(ds),
		mode:     Complete,
		alpha:    0.05,
		table:    newInternTable(),
		wbuf:     make(geom.Vector, ds.D()),
	}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// TotalSamples returns the cumulative number of samples drawn.
func (o *Operator) TotalSamples() int { return o.total }

// DistinctObserved returns the number of distinct rankings observed so far.
func (o *Operator) DistinctObserved() int { return o.table.distinct }

// observe draws one sample into the reused buffer, ranks, and updates the
// interned aggregates. Top-k modes use O(n log k) selection instead of a
// full sort (see rank.TopKSelect). No per-sample allocation happens beyond
// the first observation of each distinct ranking.
func (o *Operator) observe() error {
	if err := sampling.Into(o.sampler, o.wbuf); err != nil {
		return err
	}
	var sel []int
	switch o.mode {
	case TopKSet:
		o.setbuf = append(o.setbuf[:0], o.computer.TopKSelect(o.wbuf, o.k)...)
		slices.Sort(o.setbuf)
		sel = o.setbuf
	case TopKRanked:
		sel = o.computer.TopKSelect(o.wbuf, o.k)
	default:
		sel = o.computer.Compute(o.wbuf).Order
	}
	e, fresh := o.table.observe(sel)
	if fresh {
		e.firstW = o.wbuf.Clone()
	}
	o.total++
	return nil
}

// Cancellation policy: every observation ranks the whole dataset
// (O(n log n), or O(n log k) for top-k), so a ctx.Err() check per iteration
// is noise next to the work it guards, and cancellation lands within one
// observation even on million-row catalogs.

// resultFor assembles the Result for an interned entry and marks it
// returned. The string key only materializes here, at the API edge.
func (o *Operator) resultFor(e *internEntry, fresh int) (Result, error) {
	s := float64(e.count) / float64(o.total)
	e.returned = true
	return Result{
		Key:             e.key(),
		Items:           append([]int(nil), e.order...),
		Weights:         e.firstW,
		Stability:       s,
		ConfidenceError: stats.ConfidenceError(s, o.total, o.alpha),
		SamplesUsed:     fresh,
		TotalSamples:    o.total,
	}, nil
}

// NextFixedBudget draws exactly n fresh samples, then returns the most
// frequent not-yet-returned ranking with its stability estimate and
// confidence error (Algorithm 7). It returns ErrExhausted when every
// observed ranking has already been returned, and the context's error if ctx
// is cancelled mid-sweep.
func (o *Operator) NextFixedBudget(ctx context.Context, n int) (Result, error) {
	if n < 0 {
		return Result{}, fmt.Errorf("mc: negative budget %d", n)
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if err := o.observe(); err != nil {
			return Result{}, err
		}
	}
	e := o.table.best()
	if e == nil {
		return Result{}, ErrExhausted
	}
	return o.resultFor(e, n)
}

// NextFixedError samples until the confidence error of the stability
// estimate of the best undiscovered ranking is at most e (Algorithm 8),
// drawing at most maxSamples fresh samples (<= 0 means the package default).
// It returns ErrBudget if the cap is reached first, and the context's error
// if ctx is cancelled mid-sweep.
func (o *Operator) NextFixedError(ctx context.Context, e float64, maxSamples int) (Result, error) {
	if e <= 0 {
		return Result{}, fmt.Errorf("mc: confidence error %v must be positive", e)
	}
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}
	fresh := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if best := o.table.best(); best != nil && o.total >= minSamplesForCI {
			// The stopping rule uses a Laplace-adjusted proportion so that
			// extreme estimates (0 or 1) do not make the Wald half-width
			// collapse to zero after a handful of samples; the reported
			// error in the result remains the paper's Equation 10.
			adj := (float64(best.count) + 1) / (float64(o.total) + 2)
			if stats.ConfidenceError(adj, o.total, o.alpha) <= e {
				return o.resultFor(best, fresh)
			}
		}
		if fresh >= maxSamples {
			return Result{}, fmt.Errorf("%w (cap %d, error target %v)", ErrBudget, maxSamples, e)
		}
		if err := o.observe(); err != nil {
			return Result{}, err
		}
		fresh++
	}
}

// minSamplesForCI is the floor below which the central-limit-theorem
// interval of Equation 10 is not trusted by the fixed-error stopping rule.
const minSamplesForCI = 30

// DefaultMaxSamples caps a single fixed-error call; Equation 11 needs at
// most ~ (Z/e)^2 / 4 samples, so a million covers e >= 0.001 at 95%.
const DefaultMaxSamples = 1_000_000

// TopH returns the h most stable rankings using fixed budgets: firstBudget
// samples on the first call and stepBudget on each subsequent call,
// mirroring the experimental setup of Section 6.3 (5,000 then 1,000).
func (o *Operator) TopH(ctx context.Context, h, firstBudget, stepBudget int) ([]Result, error) {
	var out []Result
	for i := 0; i < h; i++ {
		budget := stepBudget
		if i == 0 {
			budget = firstBudget
		}
		r, err := o.NextFixedBudget(ctx, budget)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
