package stablerank_test

import (
	"context"
	"fmt"
	"log"

	"stablerank"
)

// ExampleAnalyzer_Do answers a heterogeneous batch — a consumer's stability
// question and a producer's top-3 enumeration — with one call sharing one
// plan. In 2D both answers are exact, so the output is deterministic.
func ExampleAnalyzer_Do() {
	ds := stablerank.Figure1()
	a, err := stablerank.New(ds)
	if err != nil {
		log.Fatal(err)
	}
	published := stablerank.RankingOf(ds, []float64{1, 1})
	results, err := a.Do(context.Background(),
		stablerank.VerifyQuery{Ranking: published},
		stablerank.TopHQuery{H: 3},
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
	}
	fmt.Printf("published stability: %.4f\n", results[0].Verification.Stability)
	for i, s := range results[1].Stables {
		fmt.Printf("top %d: stability %.4f\n", i+1, s.Stability)
	}
	// Output:
	// published stability: 0.0880
	// top 1: stability 0.3949
	// top 2: stability 0.1444
	// top 3: stability 0.1013
}

// ExampleAnalyzer_Stream consumes an enumeration incrementally: one result
// per ranking in decreasing stability, without materializing the full
// answer. Breaking out of the loop stops the enumeration.
func ExampleAnalyzer_Stream() {
	a, err := stablerank.New(stablerank.Figure1())
	if err != nil {
		log.Fatal(err)
	}
	mass := 0.0
	count := 0
	for res, err := range a.Stream(context.Background(), stablerank.EnumerateQuery{}) {
		if err != nil {
			log.Fatal(err)
		}
		mass += res.Stable.Stability
		count++
		if mass > 0.75 {
			break // enough of the distribution; stop enumerating
		}
	}
	fmt.Printf("%d rankings cover %.0f%% of the stability mass\n", count, 100*mass)
	// Output:
	// 5 rankings cover 80% of the stability mass
}

// ExampleAnalyzer_Do_verify verifies the stability of the published ranking
// of the paper's Figure 1 database (the consumer's Problem 1).
func ExampleAnalyzer_Do_verify() {
	ds := stablerank.Figure1()
	a, err := stablerank.New(ds)
	if err != nil {
		log.Fatal(err)
	}
	published := stablerank.RankingOf(ds, []float64{1, 1})
	res, err := a.Do(context.Background(), stablerank.VerifyQuery{Ranking: published})
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
	ctx := context.Background()
	ds := stablerank.Figure1()
	a, err := stablerank.New(ds)
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
	ds := stablerank.MustDataset(2)
	ds.MustAdd("t1", 1, 0)
	ds.MustAdd("t2", 0.99, 0.99)
	ds.MustAdd("t3", 0.98, 0.98)
	ds.MustAdd("t4", 0.97, 0.97)
	ds.MustAdd("t5", 0, 1)
	a, err := stablerank.New(ds, stablerank.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	r, err := a.Randomized(stablerank.TopKSet, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.NextFixedBudget(context.Background(), 20000)
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
	ds := stablerank.Figure1()
	a, err := stablerank.New(ds)
	if err != nil {
		log.Fatal(err)
	}
	published := stablerank.RankingOf(ds, []float64{1, 1})
	res, err := a.Do(context.Background(), stablerank.BoundaryQuery{Ranking: published})
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
