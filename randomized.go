package stablerank

import (
	"context"
	"errors"

	"stablerank/internal/mc"
)

// Mode selects the ranking semantics counted by the randomized operator
// (Section 4.5.1).
type Mode = mc.Mode

const (
	// Complete counts full rankings of all items.
	Complete Mode = mc.Complete
	// TopKSet counts unordered top-k item sets.
	TopKSet Mode = mc.TopKSet
	// TopKRanked counts ordered top-k prefixes.
	TopKRanked Mode = mc.TopKRanked
)

// ErrBudget is returned by NextFixedError when the sample cap is reached
// before the requested confidence error.
var ErrBudget = mc.ErrBudget

// RandomizedResult is one stable ranking discovered by the randomized
// operator, with its Monte-Carlo stability estimate and confidence error.
// (Result, formerly this type's name, is now the unified query API's result;
// the randomized operator kept its own shape.)
type RandomizedResult = mc.Result

// RankDistribution summarizes the rank of one item across sampled scoring
// functions. See Analyzer.ItemRankDistribution.
type RankDistribution = mc.RankDistribution

// Randomized is the Monte-Carlo GET-NEXTr operator (Section 4.3) for
// complete rankings or top-k partial rankings. It accumulates observations
// across calls; like Enumerator it is a stateful cursor and is not safe for
// concurrent use.
type Randomized struct {
	op *mc.Operator
}

// Randomized builds the randomized GET-NEXTr operator (Section 4.3) with the
// given ranking semantics; k is ignored for Complete. The returned cursor is
// not safe for concurrent use; obtain one per goroutine.
func (a *Analyzer) Randomized(mode Mode, k int) (*Randomized, error) {
	s, err := a.sampler(1)
	if err != nil {
		return nil, err
	}
	op, err := mc.NewOperator(a.ds, s,
		mc.WithMode(mode, k), mc.WithConfidenceLevel(a.alpha))
	if err != nil {
		return nil, err
	}
	return &Randomized{op: op}, nil
}

// NextFixedBudget draws n fresh samples and returns the most frequent
// undiscovered ranking (Algorithm 7), or ErrExhausted when every observed
// ranking has been returned.
func (r *Randomized) NextFixedBudget(ctx context.Context, n int) (RandomizedResult, error) {
	res, err := r.op.NextFixedBudget(orBackground(ctx), n)
	if errors.Is(err, mc.ErrExhausted) {
		return RandomizedResult{}, ErrExhausted
	}
	return res, err
}

// NextFixedError samples until the next ranking's stability estimate reaches
// confidence error e (Algorithm 8), drawing at most maxSamples fresh samples
// (<= 0 uses the package default cap); it returns ErrBudget when the cap is
// reached first.
func (r *Randomized) NextFixedError(ctx context.Context, e float64, maxSamples int) (RandomizedResult, error) {
	res, err := r.op.NextFixedError(orBackground(ctx), e, maxSamples)
	if errors.Is(err, mc.ErrExhausted) {
		return RandomizedResult{}, ErrExhausted
	}
	return res, err
}

// TopH returns the h most stable rankings with the paper's budget schedule:
// firstBudget samples for the first call, stepBudget for each subsequent one
// (Section 6.3 uses 5,000 then 1,000).
func (r *Randomized) TopH(ctx context.Context, h, firstBudget, stepBudget int) ([]RandomizedResult, error) {
	return r.op.TopH(orBackground(ctx), h, firstBudget, stepBudget)
}

// TotalSamples reports the cumulative number of samples drawn.
func (r *Randomized) TotalSamples() int { return r.op.TotalSamples() }
