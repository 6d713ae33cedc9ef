package core_test

import (
	"context"
	"fmt"
	"log"

	"stablerank/internal/core"
	"stablerank/internal/dataset"
	"stablerank/internal/mc"
)

// ctx is the default context threaded through the cancellable API in
// tests that do not exercise cancellation.
var ctx = context.Background()

// ExampleAnalyzer_Do verifies the stability of the published ranking of the
// paper's Figure 1 database (the consumer's Problem 1).
func ExampleAnalyzer_Do() {
	ds := dataset.Figure1()
	a, err := core.New(ds)
	if err != nil {
		log.Fatal(err)
	}
	published := core.RankingOf(ds, []float64{1, 1})
	res, err := a.Do(ctx, core.VerifyQuery{Ranking: published})
	if err != nil {
		log.Fatal(err)
	}
	v := res[0].Verification
	fmt.Printf("%s\nstability %.4f (exact: %v)\n",
		published.Describe(ds, 0), v.Stability, v.Exact)
	// Output:
	// t2 > t4 > t3 > t5 > t1
	// stability 0.0880 (exact: true)
}

// ExampleAnalyzer_Enumerator iterates rankings from most to least stable
// (the producer's Problem 3, GET-NEXT).
func ExampleAnalyzer_Enumerator() {
	ds := dataset.Figure1()
	a, err := core.New(ds)
	if err != nil {
		log.Fatal(err)
	}
	e, err := a.Enumerator(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := e.Next(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d. %.4f %s\n", i+1, s.Stability, s.Ranking.Describe(ds, 3))
	}
	// Output:
	// 1. 0.3949 t2 > t4 > t1 > ...
	// 2. 0.1444 t5 > t3 > t1 > ...
	// 3. 0.1013 t2 > t5 > t3 > ...
}

// ExampleAnalyzer_Randomized finds the most stable top-3 set of the
// Section 2.2.5 toy database — {t2, t3, t4}, which is not a subset of the
// skyline {t1, t2, t5}.
func ExampleAnalyzer_Randomized() {
	ds := dataset.Toy225()
	a, err := core.New(ds, core.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	r, err := a.Randomized(mc.TopKSet, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.NextFixedBudget(ctx, 20000)
	if err != nil {
		log.Fatal(err)
	}
	for _, idx := range res.Items {
		fmt.Println(ds.Item(idx).ID)
	}
	// Output:
	// t2
	// t3
	// t4
}

// ExampleAnalyzer_Do_boundary names the item swaps that bound the published
// ranking's region: perturbing the weights far enough realizes one of these
// swaps first.
func ExampleAnalyzer_Do_boundary() {
	ds := dataset.Figure1()
	a, err := core.New(ds)
	if err != nil {
		log.Fatal(err)
	}
	published := core.RankingOf(ds, []float64{1, 1})
	res, err := a.Do(ctx, core.BoundaryQuery{Ranking: published})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res[0].Facets {
		fmt.Println(f.Describe(ds))
	}
	// Output:
	// t4 <-> t3
	// t5 <-> t1
}
