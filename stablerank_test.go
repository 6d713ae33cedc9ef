// Tests for the public facade: round trips through the supported API alone
// (no internal imports), context cancellation, and concurrent use of one
// shared Analyzer (meaningful under `go test -race`).
package stablerank_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stablerank"
)

// TestFacadeRoundTrip2D drives verify -> enumerate -> randomized on the
// paper's Figure 1 database through the root package only.
func TestFacadeRoundTrip2D(t *testing.T) {
	ds := stablerank.Figure1()
	a, err := stablerank.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	published := stablerank.RankingOf(ds, []float64{1, 1})
	v, err := a.VerifyStability(ctx, published)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Exact || math.Abs(v.Stability-0.0880) > 5e-4 {
		t.Errorf("verification = %+v, want exact stability ~0.0880", v)
	}
	// Enumerate everything via the iterator; Figure 1c has 11 rankings.
	e, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	count, sum, prev := 0, 0.0, 2.0
	for s, err := range e.Rankings(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if s.Stability > prev+1e-12 {
			t.Error("stability order violated")
		}
		prev = s.Stability
		sum += s.Stability
		count++
	}
	if count != 11 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("enumerated %d rankings summing to %v, want 11 summing to 1", count, sum)
	}
	// The randomized operator finds the same top ranking.
	top, err := a.TopH(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Randomized(stablerank.Complete, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.NextFixedBudget(ctx, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != top[0].Ranking.Key() {
		t.Errorf("randomized top %s != exact top %s", res.Key, top[0].Ranking.Key())
	}
	// Infeasible ranking surfaces the facade sentinel.
	bad := stablerank.Ranking{Order: []int{0, 1, 2, 3, 4}}
	if _, err := a.VerifyStability(ctx, bad); !errors.Is(err, stablerank.ErrInfeasibleRanking) {
		t.Errorf("infeasible error = %v", err)
	}
}

// TestFacadeRoundTrip4D drives the multi-dimensional path: Monte-Carlo
// verification, delayed-arrangement enumeration, randomized top-k and the
// item-rank distribution on a 4-attribute dataset.
func TestFacadeRoundTrip4D(t *testing.T) {
	ds := stablerank.FIFA(rand.New(rand.NewSource(31)), 30)
	ref := stablerank.FIFAReferenceWeights()
	a, err := stablerank.New(ds,
		stablerank.WithCosineSimilarity(ref, 0.999),
		stablerank.WithSampleCount(20000),
		stablerank.WithSeed(31),
	)
	if err != nil {
		t.Fatal(err)
	}
	reference := stablerank.RankingOf(ds, ref)
	v, err := a.VerifyStability(ctx, reference)
	if err != nil {
		t.Fatal(err)
	}
	if v.Exact {
		t.Error("4D verification should be Monte-Carlo")
	}
	if v.Stability < 0 || v.Stability > 1 || v.ConfidenceError <= 0 {
		t.Errorf("verification = %+v", v)
	}
	// Enumerated stability of the top ranking agrees with verifying it.
	e, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vf, err := a.VerifyStability(ctx, first.Ranking)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vf.Stability-first.Stability) > 0.02 {
		t.Errorf("enumerated stability %v vs verified %v", first.Stability, vf.Stability)
	}
	// Randomized ranked top-5 in the same region.
	r, err := a.Randomized(stablerank.TopKRanked, 5)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.TopH(ctx, 3, 4000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || len(results[0].Items) != 5 {
		t.Fatalf("randomized results = %+v", results)
	}
	// Item-rank distribution of the reference leader.
	dist, err := a.ItemRankDistribution(ctx, reference.Order[0], 4000)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Best != 1 {
		t.Errorf("reference leader best rank = %d, want 1", dist.Best)
	}
}

// TestEnumeratorCancellation proves a long enumeration stops promptly when
// its context is cancelled, and that the cursor stays usable afterwards.
func TestEnumeratorCancellation(t *testing.T) {
	// Large enough that exhaustive enumeration takes far longer than the
	// test's promptness bound.
	ds := stablerank.Diamonds(rand.New(rand.NewSource(7)), 150)
	projected, err := ds.Project(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := stablerank.New(projected, stablerank.WithSampleCount(30000), stablerank.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic part: a cancelled context stops the very next call.
	cancelled, cancel := context.WithCancel(context.Background())
	if _, err := e.Next(cancelled); err != nil {
		t.Fatalf("first Next with live context: %v", err)
	}
	cancel()
	if _, err := e.Next(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	// The cursor resumes with a live context.
	if _, err := e.Next(ctx); err != nil {
		t.Fatalf("Next after resume: %v", err)
	}
	// Promptness: cancel mid-run and require the in-flight call to return
	// orders of magnitude faster than the full enumeration would.
	running, cancelRun := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.TopH(running, 1<<30)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancelRun()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled TopH = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled enumeration did not stop within 10s")
	}
}

// TestRandomizedCancellation checks the Monte-Carlo sweep honors
// cancellation too.
func TestRandomizedCancellation(t *testing.T) {
	ds := stablerank.Flights(rand.New(rand.NewSource(9)), 50000)
	a, err := stablerank.New(ds, stablerank.WithCone([]float64{1, 1, 1}, math.Pi/50))
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Randomized(stablerank.TopKSet, 10)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.NextFixedBudget(cancelled, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled NextFixedBudget = %v, want context.Canceled", err)
	}
	// A live context still works on the same operator.
	if _, err := r.NextFixedBudget(ctx, 500); err != nil {
		t.Fatalf("NextFixedBudget after cancellation: %v", err)
	}
}

// TestAnalyzerConcurrentUse shares one Analyzer across goroutines mixing
// verification, enumeration and randomized operators; `go test -race` must
// stay silent, and the shared sample pool must give every verifier the
// identical estimate.
func TestAnalyzerConcurrentUse(t *testing.T) {
	rr := rand.New(rand.NewSource(41))
	ds := stablerank.MustDataset(3)
	for i := 0; i < 12; i++ {
		ds.MustAdd("", rr.Float64(), rr.Float64(), rr.Float64())
	}
	a, err := stablerank.New(ds, stablerank.WithSampleCount(20000), stablerank.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	reference := stablerank.RankingOf(ds, []float64{1, 1, 1})

	const verifiers = 4
	stabilities := make([]float64, verifiers)
	var wg sync.WaitGroup
	errs := make(chan error, verifiers+2)
	for g := 0; g < verifiers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := a.VerifyStability(ctx, reference)
			if err != nil {
				errs <- err
				return
			}
			stabilities[g] = v.Stability
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := a.TopH(ctx, 3); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		r, err := a.Randomized(stablerank.TopKRanked, 3)
		if err != nil {
			errs <- err
			return
		}
		if _, err := r.NextFixedBudget(ctx, 2000); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < verifiers; g++ {
		if stabilities[g] != stabilities[0] {
			t.Fatalf("goroutine %d saw stability %v, goroutine 0 saw %v (pool not shared?)",
				g, stabilities[g], stabilities[0])
		}
	}
}

// TestPoolBuildSurvivesOtherCallersCancellation pins down the server
// scenario where one request's cancellation must not fail another live
// request that is blocked on the same first-use sample-pool build.
func TestPoolBuildSurvivesOtherCallersCancellation(t *testing.T) {
	ds := stablerank.Diamonds(rand.New(rand.NewSource(17)), 40)
	projected, err := ds.Project(4)
	if err != nil {
		t.Fatal(err)
	}
	// A large pool keeps the first build busy long enough for the cancel to
	// land mid-draw on most runs; if the build wins the race anyway, both
	// assertions below still hold.
	a, err := stablerank.New(projected, stablerank.WithSampleCount(300000), stablerank.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	reference := stablerank.RankingOf(projected, []float64{1, 1, 1, 1})

	doomed, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errA = a.VerifyStability(doomed, reference)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		_, errB = a.VerifyStability(ctx, reference)
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	wg.Wait()
	if errA != nil && !errors.Is(errA, context.Canceled) {
		t.Errorf("cancelled caller: %v", errA)
	}
	if errB != nil {
		t.Errorf("live caller must not inherit another caller's cancellation: %v", errB)
	}
}

// TestRankingsIteratorBreakAndResume checks that breaking out of the
// range-over-func loop leaves the enumerator positioned after the last
// yielded ranking.
func TestRankingsIteratorBreakAndResume(t *testing.T) {
	a, err := stablerank.New(stablerank.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var firstTwo []float64
	for s, err := range e.Rankings(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		firstTwo = append(firstTwo, s.Stability)
		if len(firstTwo) == 2 {
			break
		}
	}
	rest := 0
	for _, err := range e.Rankings(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		rest++
	}
	if len(firstTwo) != 2 || rest != 9 {
		t.Errorf("split iteration saw %d + %d rankings, want 2 + 9", len(firstTwo), rest)
	}
}

// TestNilContextTolerated documents that every exported context-taking
// entry point maps a nil context to context.Background instead of panicking
// deep inside a sampling loop, on an exact 2D analyzer and a Monte-Carlo
// d = 4 one.
func TestNilContextTolerated(t *testing.T) {
	var nilCtx context.Context // deliberately nil: the documented tolerance
	for _, ds := range []*stablerank.Dataset{
		stablerank.Figure1(),
		stablerank.FIFA(rand.New(rand.NewSource(1)), 8),
	} {
		weights := make([]float64, ds.D())
		for i := range weights {
			weights[i] = 1
		}
		published := stablerank.RankingOf(ds, weights)
		update := stablerank.Delta{Op: stablerank.AttrUpdate, ID: ds.Item(0).ID, Attrs: ds.Attrs(1)}
		a, err := stablerank.New(ds, stablerank.WithSampleCount(2000))
		if err != nil {
			t.Fatal(err)
		}
		randomized := func() *stablerank.Randomized {
			r, err := a.Randomized(stablerank.TopKSet, 1)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		calls := []struct {
			name string
			call func() error
		}{
			{"Do", func() error {
				_, err := a.Do(nilCtx, stablerank.VerifyQuery{Ranking: published}, stablerank.TopHQuery{H: 2})
				return err
			}},
			{"Stream", func() error {
				for _, err := range a.Stream(nilCtx, stablerank.TopHQuery{H: 2}) {
					if err != nil {
						return err
					}
				}
				return nil
			}},
			{"Enumerator", func() error { _, err := a.Enumerator(nilCtx); return err }},
			{"Enumerator.Next", func() error {
				e, err := a.Enumerator(ctx)
				if err != nil {
					return err
				}
				_, err = e.Next(nilCtx)
				return err
			}},
			{"Enumerator.Rankings", func() error {
				e, err := a.Enumerator(ctx)
				if err != nil {
					return err
				}
				for _, err := range e.Rankings(nilCtx) {
					return err
				}
				return nil
			}},
			{"TopHMerged", func() error { _, err := a.TopHMerged(nilCtx, 2, 1, 4); return err }},
			{"ApplyDelta", func() error { _, err := a.ApplyDelta(nilCtx, update); return err }},
			{"Warm", func() error { return a.Warm(nilCtx) }},
			{"LastDrift", func() error {
				na, err := a.ApplyDelta(ctx, update)
				if err != nil {
					return err
				}
				_, err = na.LastDrift(nilCtx, 100)
				return err
			}},
			{"DriftOf", func() error {
				_, err := stablerank.DriftOf(nilCtx, ds, []stablerank.Delta{update}, 1, 500, 100)
				return err
			}},
			{"VerifyStability", func() error { _, err := a.VerifyStability(nilCtx, published); return err }},
			{"TopH", func() error { _, err := a.TopH(nilCtx, 1); return err }},
			{"AboveThreshold", func() error { _, err := a.AboveThreshold(nilCtx, 0.2); return err }},
			{"ItemRankDistribution", func() error { _, err := a.ItemRankDistribution(nilCtx, 0, 500); return err }},
			{"Randomized.NextFixedBudget", func() error { _, err := randomized().NextFixedBudget(nilCtx, 500); return err }},
			{"Randomized.NextFixedError", func() error {
				_, err := randomized().NextFixedError(nilCtx, 0.1, 2000)
				if errors.Is(err, stablerank.ErrBudget) {
					return nil
				}
				return err
			}},
			{"Randomized.TopH", func() error { _, err := randomized().TopH(nilCtx, 1, 500, 100); return err }},
		}
		for _, c := range calls {
			t.Run(fmt.Sprintf("d=%d/%s", ds.D(), c.name), func(t *testing.T) {
				if err := c.call(); err != nil {
					t.Fatalf("%s with a nil context: %v", c.name, err)
				}
			})
		}
	}
}
