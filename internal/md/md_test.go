package md

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

// ctx is the default context threaded through the cancellable API in
// tests that do not exercise cancellation.
var ctx = context.Background()

func drawSamples(t *testing.T, roi geom.Region, n int, seed int64) vecmat.Matrix {
	t.Helper()
	s, err := sampling.ForRegion(roi, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	out := vecmat.New(n, roi.Dim())
	for i := 0; i < n; i++ {
		if err := sampling.Into(s, out.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func randDataset(rr *rand.Rand, n, d int) *dataset.Dataset {
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rr.Float64()
		}
		ds.MustAdd("", v...)
	}
	return ds
}

func TestStabilityOracle(t *testing.T) {
	// Halfspace w1 >= w2 covers half the orthant by symmetry.
	samples := drawSamples(t, geom.FullSpace{D: 3}, 20000, 101)
	cs := []geom.Halfspace{{Normal: geom.Vector{1, -1, 0}, Positive: true}}
	s := StabilityOracle(cs, samples)
	if math.Abs(s-0.5) > 0.02 {
		t.Errorf("oracle = %v, want ~0.5", s)
	}
	// Empty constraint set: everything inside.
	if got := StabilityOracle(nil, samples); got != 1 {
		t.Errorf("no constraints = %v, want 1", got)
	}
	// No samples.
	if got := StabilityOracle(cs, vecmat.Matrix{}); got != 0 {
		t.Errorf("no samples = %v, want 0", got)
	}
	// Negative halfspace is the complement.
	neg := []geom.Halfspace{{Normal: geom.Vector{1, -1, 0}, Positive: false}}
	if sum := StabilityOracle(cs, samples) + StabilityOracle(neg, samples); math.Abs(sum-1) > 1e-9 {
		t.Errorf("complementary halves sum to %v", sum)
	}
}

func TestVerifyAgainstExact2D(t *testing.T) {
	// The MD verifier on a 2-attribute dataset must agree with the exact 2D
	// result.
	rr := rand.New(rand.NewSource(102))
	ds := randDataset(rr, 12, 2)
	samples := drawSamples(t, geom.FullSpace{D: 2}, 40000, 103)
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	regions, err := twod.RaySweep(ds, full)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range regions {
		if reg.Stability < 0.01 {
			continue // MC error dominates tiny regions
		}
		r := rank.Compute(ds, reg.Midpoint())
		res, err := VerifyMatrix(ctx, ds, r, samples)
		if err != nil {
			t.Fatalf("VerifyMatrix: %v", err)
		}
		if math.Abs(res.Stability-reg.Stability) > 0.015 {
			t.Errorf("MC stability %v vs exact %v", res.Stability, reg.Stability)
		}
	}
}

func TestVerifyAgainstExact3D(t *testing.T) {
	rr := rand.New(rand.NewSource(104))
	ds := randDataset(rr, 8, 3)
	samples := drawSamples(t, geom.FullSpace{D: 3}, 60000, 105)
	for trial := 0; trial < 20; trial++ {
		w, _ := sampling.NewUniform(3, rr)
		wv, err := w.Sample()
		if err != nil {
			t.Fatal(err)
		}
		r := rank.Compute(ds, wv)
		mc, err := VerifyMatrix(ctx, ds, r, samples)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := VerifyExact3D(ds, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc.Stability-exact) > 0.02 {
			t.Errorf("trial %d: MC %v vs Girard exact %v", trial, mc.Stability, exact)
		}
	}
}

func TestVerifyInfeasible(t *testing.T) {
	ds := dataset.MustNew(3)
	ds.MustAdd("hi", 0.9, 0.9, 0.9)
	ds.MustAdd("lo", 0.1, 0.1, 0.1)
	samples := drawSamples(t, geom.FullSpace{D: 3}, 100, 106)
	if _, err := VerifyMatrix(ctx, ds, rank.Ranking{Order: []int{1, 0}}, samples); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("dominance-violating ranking error = %v", err)
	}
	if _, err := VerifyMatrix(ctx, ds, rank.Ranking{Order: []int{0}}, samples); err == nil {
		t.Error("short ranking accepted")
	}
	if _, err := VerifyMatrix(ctx, ds, rank.Ranking{Order: []int{0, 1}}, vecmat.Matrix{}); !errors.Is(err, ErrNoSamples) {
		t.Error("empty samples accepted")
	}
	// Tied items.
	tied := dataset.MustNew(3)
	tied.MustAdd("a", 0.5, 0.5, 0.5)
	tied.MustAdd("b", 0.5, 0.5, 0.5)
	if _, err := VerifyMatrix(ctx, tied, rank.Ranking{Order: []int{1, 0}}, samples); !errors.Is(err, ErrInfeasibleRanking) {
		t.Errorf("tie-inconsistent ranking error = %v", err)
	}
	res, err := VerifyMatrix(ctx, tied, rank.Ranking{Order: []int{0, 1}}, samples)
	if err != nil || res.Stability != 1 {
		t.Errorf("tie-consistent ranking: %+v, %v", res, err)
	}
}

func TestExchangeHyperplanes(t *testing.T) {
	ds := dataset.Figure1()
	hps := ExchangeHyperplanes(ds, geom.FullSpace{D: 2})
	// Figure 1c has 10 pairwise intersections drawn; dominated pairs are
	// excluded. Count non-dominating pairs directly.
	want := 0
	for i := 0; i < ds.N(); i++ {
		for j := i + 1; j < ds.N(); j++ {
			if !ds.DominatesIdx(i, j) && !ds.DominatesIdx(j, i) {
				want++
			}
		}
	}
	if len(hps) != want {
		t.Errorf("got %d hyperplanes, want %d", len(hps), want)
	}
	// A narrow cone keeps only a few.
	cone, _ := geom.NewCone(geom.Vector{1, 1}, math.Pi/40)
	coneHps := ExchangeHyperplanes(ds, cone)
	if len(coneHps) >= len(hps) {
		t.Errorf("cone filter kept %d of %d hyperplanes", len(coneHps), len(hps))
	}
}

func TestEngineMatchesExact2D(t *testing.T) {
	// Full engine enumeration on 2-attribute data must reproduce the exact
	// 2D region list (rankings and stabilities).
	rr := rand.New(rand.NewSource(107))
	ds := randDataset(rr, 10, 2)
	full := geom.Interval2D{Lo: 0, Hi: math.Pi / 2}
	exact, err := twod.EnumerateAll(ds, full)
	if err != nil {
		t.Fatal(err)
	}
	exactByKey := make(map[string]float64, len(exact))
	for _, r := range exact {
		exactByKey[r.Ranking.Key()] = r.Stability
	}
	samples := drawSamples(t, geom.FullSpace{D: 2}, 50000, 108)
	e, err := NewEngineMatrix(ds, geom.FullSpace{D: 2}, samples, SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	prev := 2.0
	for {
		res, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Stability > prev+1e-12 {
			t.Fatalf("stability not non-increasing: %v after %v", res.Stability, prev)
		}
		prev = res.Stability
		want, ok := exactByKey[res.Ranking.Key()]
		if !ok {
			t.Fatalf("engine produced ranking %s unknown to exact 2D", res.Ranking.Key())
		}
		if math.Abs(res.Stability-want) > 0.01 {
			t.Errorf("ranking %s: MC %v vs exact %v", res.Ranking.Key(), res.Stability, want)
		}
		found++
	}
	// Every non-sliver exact region must be found.
	missed := 0
	for _, r := range exact {
		if r.Stability > 0.005 {
			continue
		}
		missed++
	}
	if found < len(exact)-missed {
		t.Errorf("engine found %d rankings, exact has %d (%d slivers)", found, len(exact), missed)
	}
}

func TestEngineLPMatchesSamplePartition(t *testing.T) {
	rr := rand.New(rand.NewSource(109))
	ds := randDataset(rr, 8, 3)
	roi := geom.FullSpace{D: 3}
	s1 := drawSamples(t, roi, 20000, 110)
	s2 := s1.Clone()
	e1, err := NewEngineMatrix(ds, roi, s1, SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngineMatrix(ds, roi, s2, LPExact)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r1, err1 := e1.Next(ctx)
		r2, err2 := e2.Next(ctx)
		if errors.Is(err1, ErrExhausted) && errors.Is(err2, ErrExhausted) {
			break
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v, %v", err1, err2)
		}
		if r1.Ranking.Key() != r2.Ranking.Key() {
			t.Errorf("call %d: rankings differ: %s vs %s", i, r1.Ranking.Key(), r2.Ranking.Key())
		}
		if math.Abs(r1.Stability-r2.Stability) > 0.01 {
			t.Errorf("call %d: stabilities differ: %v vs %v", i, r1.Stability, r2.Stability)
		}
	}
	if e2.LPCalls() == 0 {
		t.Error("LP mode performed no LP calls")
	}
}

func TestEngineTopRankingIsMostStable(t *testing.T) {
	// The first result must match the maximum exact 3D stability over many
	// random probes.
	rr := rand.New(rand.NewSource(111))
	ds := randDataset(rr, 7, 3)
	roi := geom.FullSpace{D: 3}
	samples := drawSamples(t, roi, 30000, 112)
	e, err := NewEngineMatrix(ds, roi, samples, SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exactFirst, err := VerifyExact3D(ds, first.Ranking)
	if err != nil {
		t.Fatal(err)
	}
	// Probe: no sampled ranking may have exact stability clearly above the
	// reported top.
	u, _ := sampling.NewUniform(3, rr)
	for i := 0; i < 300; i++ {
		w, _ := u.Sample()
		r := rank.Compute(ds, w)
		s, err := VerifyExact3D(ds, r)
		if err != nil {
			t.Fatal(err)
		}
		if s > exactFirst+0.02 {
			t.Fatalf("found ranking with stability %v above reported top %v", s, exactFirst)
		}
	}
}

func TestEngineConeROI(t *testing.T) {
	rr := rand.New(rand.NewSource(113))
	ds := randDataset(rr, 20, 4)
	axis := geom.Vector{1, 0.5, 0.3, 0.2}
	cone, err := geom.NewCone(axis, math.Pi/50)
	if err != nil {
		t.Fatal(err)
	}
	samples := drawSamples(t, cone, 10000, 114)
	e, err := NewEngineMatrix(ds, cone, samples, SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	results, err := TopH(ctx, e, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no rankings found in cone")
	}
	var sum float64
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Ranking.Key()] {
			t.Error("duplicate ranking emitted")
		}
		seen[r.Ranking.Key()] = true
		sum += r.Stability
		if !cone.Contains(r.Weights) {
			t.Errorf("representative weights %v outside the cone", r.Weights)
		}
	}
	if sum > 1+1e-9 {
		t.Errorf("stabilities sum to %v > 1", sum)
	}
}

func TestEngineValidation(t *testing.T) {
	ds := dataset.Figure1()
	samples := drawSamples(t, geom.FullSpace{D: 2}, 100, 115)
	if _, err := NewEngineMatrix(dataset.MustNew(2), geom.FullSpace{D: 2}, samples, SamplePartition); !errors.Is(err, dataset.ErrEmptyDataset) {
		t.Errorf("empty dataset error = %v", err)
	}
	if _, err := NewEngineMatrix(ds, geom.FullSpace{D: 2}, vecmat.Matrix{}, SamplePartition); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no samples error = %v", err)
	}
	if _, err := NewEngineMatrix(ds, geom.FullSpace{D: 3}, samples, SamplePartition); err == nil {
		t.Error("ROI dimension mismatch accepted")
	}
	bad := vecmat.New(1, 3)
	if _, err := NewEngineMatrix(ds, geom.FullSpace{D: 2}, bad, SamplePartition); err == nil {
		t.Error("sample dimension mismatch accepted")
	}
}

func TestEngineExhaustion(t *testing.T) {
	ds := dataset.Figure1()
	samples := drawSamples(t, geom.FullSpace{D: 2}, 30000, 116)
	e, err := NewEngineMatrix(ds, geom.FullSpace{D: 2}, samples, SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	// Figure 1c: 11 regions; sampling may miss the thinnest.
	if count < 9 || count > 11 {
		t.Errorf("enumerated %d regions, want ~11", count)
	}
	if _, err := e.Next(ctx); !errors.Is(err, ErrExhausted) {
		t.Error("exhausted engine should keep returning ErrExhausted")
	}
}

func TestFullArrangementMatchesEngine(t *testing.T) {
	rr := rand.New(rand.NewSource(117))
	ds := randDataset(rr, 6, 3)
	roi := geom.FullSpace{D: 3}
	s1 := drawSamples(t, roi, 20000, 118)
	s2 := s1.Clone()
	all, err := FullArrangement(ctx, ds, roi, s1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineMatrix(ds, roi, s2, SamplePartition)
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		r, err := e.Next(ctx)
		if err != nil {
			t.Fatalf("engine ended early at %d of %d", i, len(all))
		}
		if r.Ranking.Key() != all[i].Ranking.Key() {
			t.Fatalf("position %d: %s vs %s", i, r.Ranking.Key(), all[i].Ranking.Key())
		}
	}
	// Capped construction stops early.
	s3 := drawSamples(t, roi, 5000, 119)
	capped, err := FullArrangement(ctx, ds, roi, s3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 3 {
		t.Errorf("cap ignored: %d results", len(capped))
	}
}

func TestVerifyExact3DErrors(t *testing.T) {
	ds := dataset.Figure1()
	if _, err := VerifyExact3D(ds, rank.Ranking{Order: []int{0, 1, 2, 3, 4}}); !errors.Is(err, ErrNotThreeD) {
		t.Errorf("2D dataset error = %v", err)
	}
}

// Property: stabilities over a full enumeration sum to ~1 (the sampled
// regions partition the region of interest).
func TestEngineStabilitySumsToOne(t *testing.T) {
	rr := rand.New(rand.NewSource(120))
	for trial := 0; trial < 5; trial++ {
		ds := randDataset(rr, 5+rr.Intn(4), 3)
		roi := geom.FullSpace{D: 3}
		samples := drawSamples(t, roi, 10000, int64(200+trial))
		all, err := FullArrangement(ctx, ds, roi, samples, 0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range all {
			sum += r.Stability
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: stabilities sum to %v", trial, sum)
		}
	}
}
