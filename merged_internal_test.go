package stablerank

import (
	"math"
	"testing"

	"stablerank/internal/dataset"
)

func TestTopHMergedStrictEqualsTopH(t *testing.T) {
	// tau = 0: every group is a single ranking, so merged enumeration must
	// reproduce plain TopH.
	ds := dataset.Figure1()
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := topH(ctx, a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := a.TopHMerged(ctx, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(plain) {
		t.Fatalf("merged %d groups, plain %d rankings", len(merged), len(plain))
	}
	for i := range merged {
		if merged[i].Members != 1 {
			t.Errorf("group %d has %d members with tau=0", i, merged[i].Members)
		}
		if math.Abs(merged[i].Stability-plain[i].Stability) > 1e-12 {
			t.Errorf("group %d stability %v vs plain %v", i, merged[i].Stability, plain[i].Stability)
		}
	}
}

func TestTopHMergedGroupsNeighbors(t *testing.T) {
	ds := dataset.Figure1()
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	// tau large enough to merge everything: n=5 so max distance is 10.
	all, err := a.TopHMerged(ctx, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("tau=max should merge into 1 group, got %d", len(all))
	}
	if all[0].Members != 11 {
		t.Errorf("group holds %d members, want all 11 regions", all[0].Members)
	}
	if math.Abs(all[0].Stability-1) > 1e-9 {
		t.Errorf("total merged stability %v, want 1", all[0].Stability)
	}

	// Intermediate tau: groups are fewer than regions, stabilities still
	// partition.
	mid, err := a.TopHMerged(ctx, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) >= 11 || len(mid) < 1 {
		t.Fatalf("tau=2 groups = %d", len(mid))
	}
	var sum float64
	members := 0
	for _, g := range mid {
		sum += g.Stability
		members += g.Members
		if g.Stability < g.Representative.Stability-1e-12 {
			t.Error("group stability below its representative's")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("group stabilities sum to %v", sum)
	}
	if members != 11 {
		t.Errorf("groups cover %d rankings, want 11", members)
	}
	// Decreasing summed stability.
	for i := 1; i < len(mid); i++ {
		if mid[i].Stability > mid[i-1].Stability+1e-12 {
			t.Error("groups not sorted by summed stability")
		}
	}
}

func TestTopHMergedLimits(t *testing.T) {
	ds := dataset.Figure1()
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	two, err := a.TopHMerged(ctx, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Errorf("h=2 returned %d groups", len(two))
	}
	scanned, err := a.TopHMerged(ctx, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 3 {
		t.Errorf("maxScan=3 returned %d groups", len(scanned))
	}
}
