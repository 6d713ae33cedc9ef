package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"stablerank"
)

// TestConcurrentIdenticalQueriesShareOnePoolBuild hammers one analyzer key
// with 32 concurrent identical Monte-Carlo queries and proves the two
// layers of sharing: the analyzer cache constructs exactly one Analyzer for
// the key and serves the other 31 requests from it, and that Analyzer's
// pool cell coalesces their first uses into exactly one pool build. Run
// under -race this also exercises the shared-Analyzer concurrency
// guarantees end to end.
func TestConcurrentIdenticalQueriesShareOnePoolBuild(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.DefaultSampleCount = 30_000 })

	const goroutines = 32
	// d=3 so the Monte-Carlo pool (not the exact 2D engine) answers.
	path := ts.URL + "/v1/ind3/verify?weights=1,2,1"
	bodies := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := http.Get(path)
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[g] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[g] = string(b)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Identical queries must produce byte-identical answers.
	for g := 1; g < goroutines; g++ {
		if bodies[g] != bodies[0] {
			t.Fatalf("goroutine %d saw a different response:\n%s\nvs\n%s", g, bodies[g], bodies[0])
		}
	}

	stats, builds, dedupHits, _ := s.analyzers.snapshot()
	if builds != 1 {
		t.Errorf("analyzer builds = %d, want 1", builds)
	}
	if dedupHits != goroutines-1 {
		t.Errorf("dedup hits = %d, want %d", dedupHits, goroutines-1)
	}
	if len(stats) != 1 {
		t.Fatalf("%d resident analyzers, want 1", len(stats))
	}
	if !stats[0].PoolBuilt {
		t.Error("sample pool not built after 32 Monte-Carlo queries")
	}
	if stats[0].PoolBuilds != 1 {
		t.Errorf("sample pool built %d times, want exactly 1", stats[0].PoolBuilds)
	}
}

// TestAnalyzerPoolConstructsOnce hammers the analyzer cache without HTTP in
// between: 32 goroutines requesting the same key get the same *Analyzer,
// constructed once.
func TestAnalyzerPoolConstructsOnce(t *testing.T) {
	pool := newAnalyzerPool(64, 0)
	ds := stablerank.Independent(rand.New(rand.NewSource(3)), 10, 3)
	key := analyzerKey{dataset: "d", region: "full", seed: 1, samples: 1000}

	const goroutines = 32
	got := make([]*stablerank.Analyzer, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, err := pool.get(key, ds, 1, 0, regionSpec{})
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = a
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different Analyzer", g)
		}
	}
	if n := pool.builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1", n)
	}

	// A failing key (cone without weights) is retryable and never cached.
	badSpec := regionSpec{theta: 0.5}
	badKey := analyzerKey{dataset: "d", region: badSpec.canonical(), seed: 1, samples: 1000}
	for i := 0; i < 2; i++ {
		if _, err := pool.get(badKey, ds, 1, 0, badSpec); err == nil {
			t.Fatal("bad region spec accepted")
		}
	}
	if stats, _, _, _ := pool.snapshot(); len(stats) != 1 {
		t.Errorf("failed builds left %d resident analyzers, want 1", len(stats))
	}
}

// TestAnalyzerPoolVersions pins how one cache entry follows its dataset's
// versions: a newer version of the same dimension re-points the entry to an
// Over view sharing its pool (a dedup hit, not a build), an older one gets
// a throwaway view and leaves the entry alone, and another dimension builds
// a new analyzer, which replaces the entry only when its version is newer.
func TestAnalyzerPoolVersions(t *testing.T) {
	pool := newAnalyzerPool(64, 0)
	key := analyzerKey{dataset: "d", region: "full", seed: 1, samples: 500}
	ds := func(seed int64, d int) *stablerank.Dataset {
		return stablerank.Independent(rand.New(rand.NewSource(seed)), 8, d)
	}
	v10, v11, v20, v30 := ds(1, 3), ds(2, 3), ds(3, 4), ds(4, 3)
	steps := []struct {
		ds                 *stablerank.Dataset
		gen, ver           int64
		builds, dedupHits  int64
		residentKey        string
		resident, sharesA0 bool // the entry holds the answer; the answer reads a0's pool
	}{
		{v10, 1, 0, 1, 0, "d@1.0|full|seed=1|n=500", true, true},
		{v10, 1, 0, 1, 1, "d@1.0|full|seed=1|n=500", true, true},
		{v11, 1, 1, 1, 2, "d@1.1|full|seed=1|n=500", true, true},   // PATCH: re-point
		{v10, 1, 0, 1, 3, "d@1.1|full|seed=1|n=500", false, true},  // stale read: throwaway view
		{v20, 2, 0, 2, 3, "d@2.0|full|seed=1|n=500", true, false},  // other dimension: New
		{v11, 1, 1, 3, 3, "d@2.0|full|seed=1|n=500", false, false}, // stale and other dimension: throwaway New
		{v30, 3, 0, 4, 3, "d@3.0|full|seed=1|n=500", true, false},  // back to d=3: New again
	}
	var a0 *stablerank.Analyzer
	for i, st := range steps {
		a, err := pool.get(key, st.ds, st.gen, st.ver, regionSpec{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if a0 == nil {
			if err := a.Warm(context.Background()); err != nil {
				t.Fatal(err)
			}
			a0 = a
		}
		if a.Dataset() != st.ds {
			t.Fatalf("step %d: the analyzer answers for another dataset", i)
		}
		if shares := a.PoolBuilt() && a.PoolBuilds() == a0.PoolBuilds(); shares != st.sharesA0 {
			t.Errorf("step %d: shares the first pool = %v, want %v", i, shares, st.sharesA0)
		}
		if resident := pool.resident(key) == a; resident != st.resident {
			t.Errorf("step %d: answer is the resident analyzer = %v, want %v", i, resident, st.resident)
		}
		stats, builds, dedupHits, _ := pool.snapshot()
		if builds != st.builds || dedupHits != st.dedupHits || len(stats) != 1 || stats[0].Key != st.residentKey {
			t.Errorf("step %d: builds %d, dedup hits %d, resident %+v; want %d, %d, [%s]",
				i, builds, dedupHits, stats, st.builds, st.dedupHits, st.residentKey)
		}
	}
}

// TestPatchesRaceReads runs reads of three keys on four goroutines while
// another sends PATCHes to the same dataset with a drift subscriber
// attached, so entries are re-pointed, read stale and picked as the drift
// source at once. Afterwards every key holds one analyzer over the
// registry's dataset that drew its pool once and answers as a fresh server
// does. Run under -race -count=10.
func TestPatchesRaceReads(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.DefaultSampleCount = 2000 })
	bodies := []string{
		`{"dataset":"ind3","queries":[{"op":"verify","weights":[1,2,3]},{"op":"toph","h":2}]}`,
		`{"dataset":"ind3","adaptive":0.05,"queries":[{"op":"verify","weights":[1,2,3]}]}`,
		`{"dataset":"ind3","weights":[1,1,1],"cosine":0.99,"queries":[{"op":"verify","weights":[1,2,3]},{"op":"toph","h":2}]}`,
	}
	query := func(base, body string) (string, error) {
		resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return string(b), err
	}
	drift, err := http.Get(ts.URL + "/v1/ind3/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer drift.Body.Close()

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 15 {
				if _, err := query(ts.URL, bodies[(g+i)%len(bodies)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 12 {
			body := fmt.Sprintf(`{"deltas":[{"op":"update","id":"i%d","attrs":[%d,1,2]}]}`, i, i%5)
			req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/ind3", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("patch %d = %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()

	ds, _, _, _ := s.registry.Get("ind3")
	reg := NewRegistry()
	if err := reg.Add("ind3", ds); err != nil {
		t.Fatal(err)
	}
	_, fresh := newTestServer(t, func(c *Config) { c.Registry = reg; c.DefaultSampleCount = 2000 })
	for _, body := range bodies {
		got, err := query(ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := query(fresh.URL, body); err != nil || got != want {
			t.Fatalf("%s after the history:\n%s\nfresh server (%v):\n%s", body, got, err, want)
		}
	}
	stats, builds, _, _ := s.analyzers.snapshot()
	if builds != int64(len(bodies)) || len(stats) != len(bodies) {
		t.Fatalf("%d analyzer builds, %d resident; want %d each", builds, len(stats), len(bodies))
	}
	for _, st := range stats {
		if st.PoolBuilds != 1 || !strings.HasPrefix(st.Key, "ind3@1.12|") {
			t.Errorf("resident row %s drew its pool %d times; want version 1.12, 1 draw", st.Key, st.PoolBuilds)
		}
	}
	s.analyzers.mu.Lock()
	defer s.analyzers.mu.Unlock()
	for _, el := range s.analyzers.entries {
		if el.Value.(*poolItem).a.Dataset() != ds {
			t.Error("a resident analyzer does not hold the registry's dataset")
		}
	}
}
