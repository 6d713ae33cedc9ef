package stablerank_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stablerank"
)

// cancelOnPoll is a context whose Err reports cancellation on exactly its
// k-th call, so a cursor can be stopped at any of its polls and resumed
// with the same context. It is not safe for concurrent use.
type cancelOnPoll struct {
	context.Context
	polls, k int
}

func (c *cancelOnPoll) Err() error {
	c.polls++
	if c.polls == c.k {
		return context.Canceled
	}
	return nil
}

// enumRequest is one enumeration request through the facade, returning its
// answer.
type enumRequest func(a *stablerank.Analyzer) (any, error)

// randomEnumRequest draws a request reaching up to depth deep: a Do batch
// of top-h, above and enumerate queries, a Stream broken off early, an
// Enumerator ranged with Rankings, cancelled at a random poll and ranged
// again, or TopHMerged. The name identifies the answer.
func randomEnumRequest(rng *rand.Rand, deep int) (string, enumRequest) {
	h := 1 + rng.Intn(deep)
	switch rng.Intn(4) {
	case 0:
		qs := []stablerank.Query{
			stablerank.TopHQuery{H: h},
			stablerank.AboveQuery{Threshold: float64(rng.Intn(3)) / 64},
			stablerank.EnumerateQuery{Limit: rng.Intn(deep)},
		}
		return fmt.Sprintf("do %#v", qs), func(a *stablerank.Analyzer) (any, error) { return a.Do(ctx, qs...) }
	case 1:
		return fmt.Sprintf("stream %d", h), func(a *stablerank.Analyzer) (any, error) {
			var rows []stablerank.Stable
			for res, err := range a.Stream(ctx, stablerank.EnumerateQuery{}) {
				if err != nil {
					return nil, err
				}
				if rows = append(rows, *res.Stable); len(rows) == h {
					break
				}
			}
			return rows, nil
		}
	case 2:
		poll := 1 + rng.Intn(4*deep)
		return fmt.Sprintf("enumerator %d", h), func(a *stablerank.Analyzer) (any, error) {
			e, err := a.Enumerator(ctx)
			if err != nil {
				return nil, err
			}
			pc := &cancelOnPoll{Context: ctx, k: poll}
			var rows []stablerank.Stable
			for again := true; again && len(rows) < h; {
				again = false
				for s, err := range e.Rankings(pc) {
					if errors.Is(err, context.Canceled) {
						again = true // resume: range the same cursor again
						break
					}
					if err != nil {
						return nil, err
					}
					if rows = append(rows, s); len(rows) == h {
						break
					}
				}
			}
			return rows, nil
		}
	default:
		return fmt.Sprintf("merged %d", h), func(a *stablerank.Analyzer) (any, error) { return a.TopHMerged(ctx, 0, 1, h) }
	}
}

// overwrite scribbles over every ranking and weight vector of an answer.
func overwrite(answer any) {
	var ss []stablerank.Stable
	switch v := answer.(type) {
	case []stablerank.Result:
		for _, r := range v {
			ss = append(ss, r.Stables...)
		}
	case []stablerank.Stable:
		ss = v
	case []stablerank.MergedStable:
		for _, m := range v {
			ss = append(ss, m.Representative)
		}
	}
	for _, s := range ss {
		for j := range s.Ranking.Order {
			s.Ranking.Order[j] = -1
		}
		for j := range s.Weights {
			s.Weights[j] = 42
		}
	}
}

// TestSharedEnumerationMatchesFresh: eight goroutines share one analyzer
// and send it random enumeration requests through every facade entry point
// (Do, Stream, a cancelled and resumed Enumerator, TopHMerged), with depths
// past the enumeration memo's bound, then overwrite what they got. Every
// answer equals the same request on a fresh analyzer, for d = 2 and 4 and
// worker counts 1, 2 and 8. Run under -race -count=10.
func TestSharedEnumerationMatchesFresh(t *testing.T) {
	for _, d := range []int{2, 4} {
		ds := stablerank.AntiCorrelated(rand.New(rand.NewSource(5)), 12, d)
		// 64 samples bound the memo at 64 x d x 8 bytes: 9 rankings in 2D and
		// 16 at d = 4.
		deep := 3 * 64 * d / (12 + d)
		newAnalyzer := func(workers int) *stablerank.Analyzer {
			a, err := stablerank.New(ds, stablerank.WithSeed(9), stablerank.WithSampleCount(64), stablerank.WithWorkers(workers))
			if err != nil {
				panic(err) // the options are valid
			}
			return a
		}
		if all, err := newAnalyzer(1).TopH(ctx, 1<<20); err != nil || len(all) <= deep/3 {
			t.Fatalf("d=%d: %d rankings (%v) fit in the memo; the test shows nothing", d, len(all), err)
		}
		var mu sync.Mutex
		fresh := map[string]any{}
		for _, workers := range []int{1, 2, 8} {
			a := newAnalyzer(workers)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100*d + 10*workers + g)))
					for i := 0; i < 10; i++ {
						name, req := randomEnumRequest(rng, deep)
						got, err := req(a)
						if err != nil {
							t.Errorf("d=%d workers=%d %s: %v", d, workers, name, err)
							return
						}
						mu.Lock()
						want, ok := fresh[name]
						if !ok {
							want, err = req(newAnalyzer(1))
							fresh[name] = want
						}
						mu.Unlock()
						if err != nil {
							t.Errorf("d=%d %s on a fresh analyzer: %v", d, name, err)
							return
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("d=%d workers=%d goroutine %d step %d %s: answer differs from a fresh analyzer's", d, workers, g, i, name)
							return
						}
						overwrite(got)
					}
				}(g)
			}
			wg.Wait()
		}
	}
}
