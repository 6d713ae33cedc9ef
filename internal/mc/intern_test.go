package mc

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stablerank/internal/datagen"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
)

// TestInternCollisionFallback forces every identity onto one hash bucket
// and checks that the exact-key overflow path keeps counts, distinct totals
// and the drain order correct — the safety net behind the 64-bit interned
// keys.
func TestInternCollisionFallback(t *testing.T) {
	table := newInternTable()
	table.hash = func([]int) uint64 { return 42 } // adversarial hash: everything collides
	a, b, c := []int{0, 1, 2}, []int{2, 1, 0}, []int{1, 0, 2}
	for i, obs := range [][]int{a, b, a, c, b, a} {
		if _, fresh := table.observe(obs); fresh != (i == 0 || i == 1 || i == 3) {
			t.Fatalf("observation %d: fresh = %v", i, fresh)
		}
	}
	if table.distinct != 3 {
		t.Fatalf("distinct = %d, want 3", table.distinct)
	}
	// best() drains in count order, ties by string key, across both maps,
	// and each identity keeps its exact count.
	var got []string
	var counts []int
	for e := table.best(); e != nil; e = table.best() {
		got = append(got, e.key())
		counts = append(counts, e.count)
		e.returned = true
	}
	want, wantCounts := []string{"0,1,2", "2,1,0", "1,0,2"}, []int{3, 2, 1}
	if !slices.Equal(got, want) || !slices.Equal(counts, wantCounts) {
		t.Fatalf("best() drained %v with counts %v, want %v with %v", got, counts, want, wantCounts)
	}
}

// TestOperatorSurvivesCollidingHash runs the whole GET-NEXTr operator under
// the adversarial constant hash and checks it returns exactly the same
// results as the well-distributed default hash.
func TestOperatorSurvivesCollidingHash(t *testing.T) {
	ds := datagen.Synthetic(rand.New(rand.NewSource(5)), datagen.KindAntiCorrelated, 12, 3)
	build := func() *Operator {
		s, err := sampling.NewUniform(3, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		op, err := NewOperator(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	good, bad := build(), build()
	bad.table.hash = func([]int) uint64 { return 0 }
	for i := 0; i < 4; i++ {
		rg, errG := good.NextFixedBudget(context.Background(), 500)
		rb, errB := bad.NextFixedBudget(context.Background(), 500)
		if (errG == nil) != (errB == nil) {
			t.Fatalf("call %d: errors diverge: %v vs %v", i, errG, errB)
		}
		if errG != nil {
			break
		}
		if rg.Key != rb.Key || rg.Stability != rb.Stability {
			t.Fatalf("call %d: colliding hash changed results: %q/%v vs %q/%v",
				i, rg.Key, rg.Stability, rb.Key, rb.Stability)
		}
	}
	if good.DistinctObserved() != bad.DistinctObserved() {
		t.Fatalf("distinct: %d vs %d", good.DistinctObserved(), bad.DistinctObserved())
	}
}

// TestLessIndicesAsKeyMatchesStringCompare: the allocation-free tie-break
// must order exactly like comparing the encoded string keys.
func TestLessIndicesAsKeyMatchesStringCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			// Small and large values mixed so multi-digit prefixes occur
			// ("2" vs "23", "10" vs "9").
			a[i] = rng.Intn(130)
			b[i] = rng.Intn(130)
		}
		ka := rank.Ranking{Order: a}.Key()
		kb := rank.Ranking{Order: b}.Key()
		if got, want := lessIndicesAsKey(a, b), ka < kb; got != want {
			t.Fatalf("lessIndicesAsKey(%v, %v) = %v, string compare %q < %q = %v", a, b, got, ka, kb, want)
		}
	}
}

// TestObserveAllocationBudget: after the warm-up phase has interned every
// ranking the region can produce, further sampling must not allocate per
// sample — the point of the interned keys and reused buffers.
func TestObserveAllocationBudget(t *testing.T) {
	ds := datagen.Synthetic(rand.New(rand.NewSource(2)), datagen.KindCorrelated, 30, 3)
	for _, mode := range []struct {
		name string
		mode Mode
		k    int
	}{{"complete", Complete, 0}, {"topk-set", TopKSet, 5}, {"topk-ranked", TopKRanked, 5}} {
		t.Run(mode.name, func(t *testing.T) {
			// A narrow cone keeps the set of reachable rankings small, so
			// the warm-up really does intern all of them and steady state
			// measures pure counting.
			cone, err := geom.NewCone(geom.Vector{1, 1, 1}, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sampling.NewCap(cone, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			op, err := NewOperator(ds, s, WithMode(mode.mode, mode.k))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ { // warm-up: discover the identities
				if err := op.observe(); err != nil {
					t.Fatal(err)
				}
			}
			const batch = 512
			allocs := testing.AllocsPerRun(3, func() {
				for i := 0; i < batch; i++ {
					if err := op.observe(); err != nil {
						t.Fatal(err)
					}
				}
			})
			// Tolerate a stray discovery or map rehash, but nothing per
			// sample: the historical implementation allocated >= 2 per
			// observation (key string + sample vector).
			if allocs > batch/8 {
				t.Errorf("%.1f allocs per %d observations (%.2f/sample), want ~0",
					allocs, batch, allocs/batch)
			}
		})
	}
}

// TestItemRankDistributionMatchesRanking cross-checks the flat rank sweep
// against full rankings computed by the rank package.
func TestItemRankDistributionFlatSweep(t *testing.T) {
	ds := datagen.Synthetic(rand.New(rand.NewSource(8)), datagen.KindIndependent, 40, 3)
	s, err := sampling.NewUniform(3, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ItemRankDistribution(context.Background(), ds, s, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Re-draw the identical sample stream and rank fully.
	s2, err := sampling.NewUniform(3, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	comp := rank.NewComputer(ds)
	wantCounts := map[int]int{}
	for i := 0; i < 200; i++ {
		w, err := s2.Sample()
		if err != nil {
			t.Fatal(err)
		}
		wantCounts[comp.Compute(geom.Vector(w)).PositionOf(7)]++
	}
	if len(dist.Counts) != len(wantCounts) {
		t.Fatalf("rank histogram %v, want %v", dist.Counts, wantCounts)
	}
	ranks := make([]int, 0, len(wantCounts))
	for r := range wantCounts {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if dist.Counts[r] != wantCounts[r] {
			t.Fatalf("rank %d: %d, want %d", r, dist.Counts[r], wantCounts[r])
		}
	}
}
