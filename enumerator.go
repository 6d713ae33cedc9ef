package stablerank

import (
	"context"
	"errors"
	"iter"

	"stablerank/internal/md"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
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
	a    *Analyzer
	pool vecmat.Matrix // d > 2
	iv   Interval2D    // 2D
	// next is the position in the sequence of the ranking Next returns next.
	next int

	// twoD or mdE is the live engine, nil while the cursor replays the memo;
	// made counts the rankings it has produced, and those before next are
	// discarded. Regenerating the replayed rankings is exact because GET-NEXT
	// is deterministic for a fixed dataset, region and pool, a resumed
	// engine included.
	twoD *twod.Enumerator
	mdE  *md.Engine
	made int
	// kept is the prefix [0, next) while the cursor may still publish it
	// (keeping), with keptBytes its memo size.
	kept      []Stable
	keptBytes int64
	keeping   bool
}

// enumMemo is an immutable prefix of an analyzer's enumeration: the first
// len(stables) rankings of its GET-NEXT sequence, bytes their size by
// stableBytes, and done set when the sequence ends after them. The rankings
// are never handed out, only deep copies of them.
type enumMemo struct {
	stables []Stable
	bytes   int64
	done    bool
}

// memoBound is the most bytes an analyzer's memo holds: the size of its
// sample pool, SampleCount x d float64s, reckoned the same way in 2D where
// no pool is drawn. For 100 items at d = 4 and a 20k pool that is about
// 770 rankings.
func (a *Analyzer) memoBound() int64 { return int64(a.sampleCount) * int64(a.ds.D()) * 8 }

// stableBytes is one ranking's memo size: its order and weights at 8 bytes
// per element.
func stableBytes(s Stable) int64 { return 8 * int64(len(s.Ranking.Order)+len(s.Weights)) }

// publishMemo installs m when it is a strictly longer prefix than the
// current memo, or the same prefix newly marked done. Every prefix is of
// the same sequence, so the longer one contains the shorter.
func (a *Analyzer) publishMemo(m *enumMemo) {
	for {
		old := a.memo.Load()
		if old != nil && (len(m.stables) < len(old.stables) ||
			len(m.stables) == len(old.stables) && (old.done || !m.done)) {
			return
		}
		if a.memo.CompareAndSwap(old, m) {
			return
		}
	}
}

// cloneStable deep-copies the slices of s, so a caller that mutates its
// result changes nobody else's answer.
func cloneStable(s Stable) Stable {
	s.Ranking = s.Ranking.Clone()
	s.Weights = s.Weights.Clone()
	return s
}

// Enumerator prepares iterative stable-ranking enumeration (the GET-NEXT
// operator of Problem 3). Above two dimensions it obtains the sample pool
// now; the cursor replays the Analyzer's memoized prefix before it refines
// anything. The returned cursor is not safe for concurrent use; obtain one
// per goroutine (concurrent Enumerator calls on a shared Analyzer are
// safe).
func (a *Analyzer) Enumerator(ctx context.Context) (*Enumerator, error) {
	ctx = orBackground(ctx)
	e := &Enumerator{a: a}
	if a.is2D() {
		iv, err := a.interval()
		if err != nil {
			return nil, err
		}
		e.iv = iv
		return e, nil
	}
	pool, err := a.samplePool(ctx)
	if err != nil {
		return nil, err
	}
	e.pool = pool
	return e, nil
}

// Next returns the next most stable ranking, or ErrExhausted.
func (e *Enumerator) Next(ctx context.Context) (Stable, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return Stable{}, err
	}
	if e.twoD == nil && e.mdE == nil {
		m := e.a.memo.Load()
		if m != nil && e.next < len(m.stables) {
			e.next++
			return cloneStable(m.stables[e.next-1]), nil
		}
		if m != nil && m.done {
			return Stable{}, ErrExhausted
		}
		if err := e.start(m); err != nil {
			return Stable{}, err
		}
	}
	for e.made < e.next {
		if _, err := e.step(ctx); err != nil {
			return Stable{}, err
		}
		e.made++
	}
	s, err := e.step(ctx)
	if errors.Is(err, ErrExhausted) && e.keeping {
		e.a.publishMemo(&enumMemo{stables: e.kept, bytes: e.keptBytes, done: true})
		e.kept, e.keeping = nil, false
	}
	if err != nil {
		return Stable{}, err
	}
	e.made++
	e.next++
	if !e.keeping {
		return s, nil
	}
	if b := stableBytes(s); e.keptBytes+b <= e.a.memoBound() {
		e.kept = append(e.kept, s)
		e.keptBytes += b
		e.a.publishMemo(&enumMemo{stables: e.kept, bytes: e.keptBytes})
		return cloneStable(s), nil
	}
	// Past the bound: stream on without keeping rows.
	e.kept, e.keeping = nil, false
	return s, nil
}

// start builds the live engine once the cursor has replayed all of memo m
// (nil when empty), keeping the replayed prefix for later publishing.
func (e *Enumerator) start(m *enumMemo) error {
	a := e.a
	if a.is2D() {
		te, err := twod.NewEnumerator(a.ds, e.iv)
		if err != nil {
			return err
		}
		e.twoD = te
	} else {
		// The engine partitions the pool in place; hand it a deep copy (one
		// contiguous memcpy) so verification calls on the analyzer keep their
		// own row ordering (contents are identical).
		me, err := md.NewEngineMatrix(a.ds, a.roi, e.pool.Clone(), md.SamplePartition)
		if err != nil {
			return err
		}
		e.mdE = me
	}
	e.keeping = true
	if m != nil {
		// The full slice expression makes the first append copy, so two
		// cursors starting from one memo never append into the same array.
		e.kept, e.keptBytes = m.stables[:len(m.stables):len(m.stables)], m.bytes
	}
	return nil
}

// step returns the live engine's next ranking.
func (e *Enumerator) step(ctx context.Context) (Stable, error) {
	if e.twoD != nil {
		if err := ctx.Err(); err != nil {
			return Stable{}, err
		}
		r, err := e.twoD.Next()
		if errors.Is(err, twod.ErrExhausted) {
			return Stable{}, ErrExhausted
		}
		if err != nil {
			return Stable{}, err
		}
		return Stable{Ranking: r.Ranking, Stability: r.Stability, Weights: r.Region.Midpoint(), Exact: true}, nil
	}
	r, err := e.mdE.Next(ctx)
	if errors.Is(err, md.ErrExhausted) {
		return Stable{}, ErrExhausted
	}
	if err != nil {
		return Stable{}, err
	}
	return Stable{
		Ranking:         r.Ranking,
		Stability:       r.Stability,
		Weights:         r.Weights,
		ConfidenceError: confidenceOf(r.Stability, e.pool.Rows(), e.a.alpha),
	}, nil
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
