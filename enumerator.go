package stablerank

import (
	"context"
	"errors"
	"iter"

	"stablerank/internal/core"
)

// Enumerator yields rankings in decreasing stability (the GET-NEXT operator
// of Problem 3). In two dimensions it is exact; otherwise it runs the
// delayed arrangement construction over the analyzer's Monte-Carlo sample
// pool.
//
// An Enumerator first replays the prefix of the sequence that earlier
// cursors on the same Analyzer have produced, which the Analyzer keeps up to
// the size of its sample pool, and builds its own ray sweep or arrangement
// only past it; the rankings are the same either way. Every Stable it
// returns is the caller's own deep copy.
//
// An Enumerator is a single iteration cursor and is not safe for concurrent
// use. Cancelling the context passed to Next (or driving Rankings) stops the
// current refinement promptly and leaves the cursor consistent, so a later
// call with a live context resumes the enumeration.
type Enumerator struct {
	core *core.Enumerator
}

// Next returns the next most stable ranking, or ErrExhausted.
func (e *Enumerator) Next(ctx context.Context) (Stable, error) {
	return e.core.Next(orBackground(ctx))
}

// Rankings returns a Go 1.23 range-over-func iterator over the remaining
// rankings in decreasing stability:
//
//	for s, err := range e.Rankings(ctx) {
//		if err != nil {
//			return err // cancellation or an internal failure
//		}
//		use(s)
//	}
//
// The sequence ends cleanly at exhaustion (ErrExhausted is consumed, not
// yielded). Any other error — including ctx's error after cancellation — is
// yielded once with a zero Stable, and the sequence stops. The iterator is
// single-use in the sense that it advances the Enumerator it was created
// from; breaking out of the loop and ranging again continues from where the
// first loop stopped.
func (e *Enumerator) Rankings(ctx context.Context) iter.Seq2[Stable, error] {
	return func(yield func(Stable, error) bool) {
		for {
			s, err := e.Next(ctx)
			if errors.Is(err, ErrExhausted) {
				return
			}
			if !yield(s, err) || err != nil {
				return
			}
		}
	}
}
