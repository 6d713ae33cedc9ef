package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
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

// TestAnalyzerPoolSingleflightDirect hammers the analyzer cache without
// HTTP in between: 32 goroutines requesting the same key get the same
// *Analyzer, constructed once.
func TestAnalyzerPoolSingleflightDirect(t *testing.T) {
	pool := newAnalyzerPool(64, 0)
	ds := stablerank.Independent(rand.New(rand.NewSource(3)), 10, 3)
	key := analyzerKey{dataset: "d", gen: 1, region: "full:", seed: 1, samples: 1000}

	const goroutines = 32
	got := make([]*stablerank.Analyzer, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, err := pool.get(key, ds, regionSpec{})
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
	badKey := analyzerKey{dataset: "d", gen: 1, region: badSpec.canonical(), seed: 1, samples: 1000}
	for i := 0; i < 2; i++ {
		if _, err := pool.get(badKey, ds, badSpec); err == nil {
			t.Fatal("bad region spec accepted")
		}
	}
	if stats, _, _, _ := pool.snapshot(); len(stats) != 1 {
		t.Errorf("failed builds left %d resident analyzers, want 1", len(stats))
	}
}
