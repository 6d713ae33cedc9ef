package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stablerank"
)

// newTestServer builds a Server over Figure 1 (2D, exact engine) and a small
// 3D simulated dataset (Monte-Carlo engine), mounted on an httptest server.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add("fig1", stablerank.Figure1()); err != nil {
		t.Fatal(err)
	}
	ds3 := stablerank.Independent(rand.New(rand.NewSource(7)), 12, 3)
	if err := reg.Add("ind3", ds3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Registry:           reg,
		DefaultSampleCount: 20_000,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// get fetches path and decodes the JSON body into v (when non-nil),
// returning the response status and headers.
func get(t *testing.T, ts *httptest.Server, path string, v any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON (%v):\n%s", path, err, body)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	code, _ := get(t, ts, "/healthz", &got)
	if code != http.StatusOK || got.Status != "ok" || got.Datasets != 2 {
		t.Fatalf("healthz = %d %+v", code, got)
	}
}

func TestVerifyExact2D(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		Dataset string `json:"dataset"`
		Ranking []struct {
			Index int    `json:"index"`
			ID    string `json:"id"`
		} `json:"ranking"`
		Stability float64 `json:"stability"`
		Exact     bool    `json:"exact"`
	}
	code, _ := get(t, ts, "/v1/fig1/verify?weights=1,1", &got)
	if code != http.StatusOK {
		t.Fatalf("verify = %d", code)
	}
	if !got.Exact {
		t.Error("2D verify should be exact")
	}
	if got.Stability <= 0 || got.Stability > 1 {
		t.Errorf("stability %v out of (0,1]", got.Stability)
	}
	// Figure 1's ranking under f = x1+x2 is t2 > t4 > t3 > t5 > t1.
	want := []string{"t2", "t4", "t3", "t5", "t1"}
	if len(got.Ranking) != 5 {
		t.Fatalf("ranking has %d items", len(got.Ranking))
	}
	for i, w := range want {
		if got.Ranking[i].ID != w {
			t.Errorf("ranking[%d] = %s, want %s", i, got.Ranking[i].ID, w)
		}
	}
}

func TestVerifyMonteCarlo3D(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		Stability       float64 `json:"stability"`
		ConfidenceError float64 `json:"confidence_error"`
		Exact           bool    `json:"exact"`
		SampleCount     int     `json:"sample_count"`
	}
	code, _ := get(t, ts, "/v1/ind3/verify?weights=1,1,1&samples=5000", &got)
	if code != http.StatusOK {
		t.Fatalf("verify = %d", code)
	}
	if got.Exact {
		t.Error("3D verify should be Monte-Carlo")
	}
	if got.ConfidenceError <= 0 {
		t.Errorf("confidence error %v", got.ConfidenceError)
	}
	if got.SampleCount != 5000 {
		t.Errorf("sample_count = %d, want 5000", got.SampleCount)
	}
}

func TestVerifyErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, path string
		want       int
	}{
		{"unknown dataset", "/v1/nope/verify?weights=1,1", http.StatusNotFound},
		{"missing weights", "/v1/fig1/verify", http.StatusBadRequest},
		{"wrong weight count", "/v1/fig1/verify?weights=1,2,3", http.StatusBadRequest},
		{"bad weight", "/v1/fig1/verify?weights=1,x", http.StatusBadRequest},
		{"theta and cosine", "/v1/fig1/verify?weights=1,1&theta=0.1&cosine=0.9", http.StatusBadRequest},
		{"theta without weights", "/v1/fig1/verify?theta=0.1", http.StatusBadRequest},
		{"bad samples", "/v1/fig1/verify?weights=1,1&samples=0", http.StatusBadRequest},
		{"huge samples", "/v1/fig1/verify?weights=1,1&samples=999999999", http.StatusBadRequest},
		{"non-finite weight", "/v1/fig1/verify?weights=1,NaN", http.StatusBadRequest},
		{"negative theta", "/v1/fig1/verify?weights=1,1&theta=-0.05", http.StatusBadRequest},
		// A present zero is not an absent parameter: it must not silently
		// widen the region to the full function space.
		{"explicit zero theta", "/v1/fig1/verify?weights=1,1&theta=0", http.StatusBadRequest},
		{"explicit zero cosine", "/v1/fig1/verify?weights=1,1&cosine=0", http.StatusBadRequest},
		{"NaN cosine", "/v1/fig1/verify?weights=1,1&cosine=NaN", http.StatusBadRequest},
		{"cosine above 1", "/v1/fig1/verify?weights=1,1&cosine=1.5", http.StatusBadRequest},
		{"overflowing page", "/v1/fig1/rankings?page=922337203685477580&per_page=100", http.StatusBadRequest},
		{"partial ranking", "/v1/fig1/verify?ranking=t1,t2", http.StatusBadRequest},
		{"unknown ranking item", "/v1/fig1/verify?ranking=t1,t2,t3,t4,zz", http.StatusBadRequest},
		{"repeated ranking item", "/v1/fig1/verify?ranking=t1,t1,t3,t4,t5", http.StatusBadRequest},
		// No scoring function in a tight cone around (1,1) puts t1 first:
		// the published ranking is infeasible in the region, 422.
		{"infeasible ranking", "/v1/fig1/verify?weights=1,1&theta=0.001&ranking=t1,t5,t3,t4,t2", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		code, _ := get(t, ts, tc.path, &e)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if e.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
}

func TestVerifyPublishedRanking(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		Stability float64 `json:"stability"`
		Exact     bool    `json:"exact"`
	}
	code, _ := get(t, ts, "/v1/fig1/verify?ranking=t2,t4,t3,t5,t1", &got)
	if code != http.StatusOK || !got.Exact || got.Stability <= 0 {
		t.Fatalf("published-ranking verify = %d %+v", code, got)
	}
	// Same answer as the weights form that induces the same ranking.
	var byWeights struct {
		Stability float64 `json:"stability"`
	}
	get(t, ts, "/v1/fig1/verify?weights=1,1", &byWeights)
	if got.Stability != byWeights.Stability {
		t.Errorf("ranking form %v != weights form %v", got.Stability, byWeights.Stability)
	}
}

func TestTopH(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		H        int `json:"h"`
		Rankings []struct {
			Rank      int     `json:"rank"`
			Stability float64 `json:"stability"`
			Exact     bool    `json:"exact"`
			Items     []struct {
				ID string `json:"id"`
			} `json:"items"`
		} `json:"rankings"`
	}
	code, _ := get(t, ts, "/v1/fig1/toph?h=3", &got)
	if code != http.StatusOK || len(got.Rankings) != 3 {
		t.Fatalf("toph = %d with %d rankings", code, len(got.Rankings))
	}
	prev := 2.0
	for i, r := range got.Rankings {
		if r.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, r.Rank)
		}
		if r.Stability > prev {
			t.Error("toph not sorted by stability")
		}
		prev = r.Stability
		if !r.Exact || len(r.Items) != 5 {
			t.Errorf("ranking %d: exact=%v items=%d", i, r.Exact, len(r.Items))
		}
	}
	if code, _ := get(t, ts, "/v1/fig1/toph?h=0", nil); code != http.StatusBadRequest {
		t.Errorf("h=0 status %d", code)
	}
	if code, _ := get(t, ts, "/v1/fig1/toph?h=99999", nil); code != http.StatusBadRequest {
		t.Errorf("h over cap status %d", code)
	}
}

func TestAboveThreshold(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		Rankings []struct {
			Stability float64 `json:"stability"`
		} `json:"rankings"`
	}
	code, _ := get(t, ts, "/v1/fig1/above?s=0.2", &got)
	if code != http.StatusOK {
		t.Fatalf("above = %d", code)
	}
	if len(got.Rankings) == 0 {
		t.Fatal("no rankings above 0.2; Figure 1 has at least one")
	}
	for _, r := range got.Rankings {
		if r.Stability < 0.2 {
			t.Errorf("stability %v below threshold", r.Stability)
		}
	}
	if code, _ := get(t, ts, "/v1/fig1/above?s=0", nil); code != http.StatusBadRequest {
		t.Errorf("s=0 status %d", code)
	}
	if code, _ := get(t, ts, "/v1/fig1/above?s=1.5", nil); code != http.StatusBadRequest {
		t.Errorf("s=1.5 status %d", code)
	}
}

func TestRankingsPagination(t *testing.T) {
	_, ts := newTestServer(t, nil)
	type page struct {
		Page    int  `json:"page"`
		PerPage int  `json:"per_page"`
		HasMore bool `json:"has_more"`
		Results []struct {
			Rank      int     `json:"rank"`
			Stability float64 `json:"stability"`
		} `json:"results"`
	}
	// Figure 1 has exactly 11 ranking regions (Figure 1c).
	var pages []page
	seen := 0
	for p := 0; ; p++ {
		var got page
		code, _ := get(t, ts, fmt.Sprintf("/v1/fig1/rankings?page=%d&per_page=4", p), &got)
		if code != http.StatusOK {
			t.Fatalf("page %d = %d", p, code)
		}
		pages = append(pages, got)
		seen += len(got.Results)
		if !got.HasMore {
			break
		}
		if p > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if seen != 11 {
		t.Errorf("paginated enumeration found %d rankings, want 11", seen)
	}
	if len(pages) != 3 || len(pages[0].Results) != 4 || len(pages[2].Results) != 3 {
		t.Errorf("page sizes: %d pages, first %d, last %d",
			len(pages), len(pages[0].Results), len(pages[len(pages)-1].Results))
	}
	// Global rank continuity and sortedness across pages.
	wantRank := 1
	prev := 2.0
	for _, pg := range pages {
		for _, r := range pg.Results {
			if r.Rank != wantRank {
				t.Errorf("rank %d, want %d", r.Rank, wantRank)
			}
			wantRank++
			if r.Stability > prev {
				t.Error("stability not non-increasing across pages")
			}
			prev = r.Stability
		}
	}
	// Past-the-end page is empty without has_more.
	var empty page
	if code, _ := get(t, ts, "/v1/fig1/rankings?page=5&per_page=4", &empty); code != http.StatusOK {
		t.Fatalf("past-the-end page = %d", code)
	}
	if len(empty.Results) != 0 || empty.HasMore {
		t.Errorf("past-the-end page: %d results, has_more=%v", len(empty.Results), empty.HasMore)
	}
}

func TestItemRank(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		Item struct {
			ID    string `json:"id"`
			Index int    `json:"index"`
		} `json:"item"`
		Samples        int            `json:"samples"`
		Best           int            `json:"best"`
		Worst          int            `json:"worst"`
		Median         int            `json:"median"`
		Counts         map[string]int `json:"counts"`
		ProbabilityTop struct {
			K           int     `json:"k"`
			Probability float64 `json:"probability"`
		} `json:"probability_top"`
	}
	code, _ := get(t, ts, "/v1/fig1/itemrank?item=t2&n=2000&k=2", &got)
	if code != http.StatusOK {
		t.Fatalf("itemrank = %d", code)
	}
	if got.Item.ID != "t2" || got.Item.Index != 1 || got.Samples != 2000 {
		t.Errorf("item %+v samples %d", got.Item, got.Samples)
	}
	if got.Best < 1 || got.Worst > 5 || got.Best > got.Worst || got.Median < got.Best || got.Median > got.Worst {
		t.Errorf("rank bounds best=%d worst=%d median=%d", got.Best, got.Worst, got.Median)
	}
	total := 0
	for _, c := range got.Counts {
		total += c
	}
	if total != 2000 {
		t.Errorf("counts sum to %d, want 2000", total)
	}
	// t2 is in the Figure 1 top-2 for a large share of the function space.
	if got.ProbabilityTop.K != 2 || got.ProbabilityTop.Probability <= 0 || got.ProbabilityTop.Probability > 1 {
		t.Errorf("probability_top %+v", got.ProbabilityTop)
	}
	if code, _ := get(t, ts, "/v1/fig1/itemrank?item=missing", nil); code != http.StatusNotFound {
		t.Errorf("unknown item status %d", code)
	}
	if code, _ := get(t, ts, "/v1/fig1/itemrank", nil); code != http.StatusBadRequest {
		t.Errorf("missing item status %d", code)
	}
}

func TestRequestTimeoutMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	for _, path := range []string{
		"/v1/ind3/verify?weights=1,1,1",
		"/v1/fig1/toph?h=3",
		"/v1/fig1/itemrank?item=t1",
	} {
		var e struct {
			Error string `json:"error"`
		}
		code, _ := get(t, ts, path, &e)
		if code != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d, want 504", path, code)
		}
	}
}

func TestDatasetLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Upload a new dataset.
	csv := "id,x1,x2\na,1,2\nb,2,1\nc,3,3\n"
	resp, err := http.Post(ts.URL+"/datasets/fresh", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Name string `json:"name"`
		N    int    `json:"n"`
		D    int    `json:"d"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.N != 3 || created.D != 2 {
		t.Errorf("created %+v", created)
	}
	// It is listed and queryable.
	var list struct {
		Datasets []struct {
			Name string `json:"name"`
			N    int    `json:"n"`
			D    int    `json:"d"`
		} `json:"datasets"`
	}
	if code, _ := get(t, ts, "/datasets", &list); code != http.StatusOK || len(list.Datasets) != 3 {
		t.Fatalf("datasets list: %d entries", len(list.Datasets))
	}
	if code, _ := get(t, ts, "/v1/fresh/verify?weights=1,1", nil); code != http.StatusOK {
		t.Errorf("query on uploaded dataset = %d", code)
	}

	// Replacing a dataset invalidates cached answers: same query, new data.
	var before struct {
		Ranking []struct {
			ID string `json:"id"`
		} `json:"ranking"`
	}
	get(t, ts, "/v1/fresh/verify?weights=1,1", &before)
	resp, err = http.Post(ts.URL+"/datasets/fresh", "text/csv",
		strings.NewReader("id,x1,x2\nz,9,9\ny,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var after struct {
		Ranking []struct {
			ID string `json:"id"`
		} `json:"ranking"`
	}
	get(t, ts, "/v1/fresh/verify?weights=1,1", &after)
	if len(after.Ranking) != 2 || after.Ranking[0].ID != "z" {
		t.Errorf("replaced dataset still serves stale results: %+v", after.Ranking)
	}

	// Error paths.
	for _, tc := range []struct {
		name, csv string
	}{
		{"bad..name!", "id,x1,x2\na,1,2\n"},
		{"ragged", "id,x1,x2\na,1\n"},
		{"one-attr", "id,x1\na,1\n"},
		{"empty", ""},
	} {
		resp, err := http.Post(ts.URL+"/datasets/"+tc.name, "text/csv", strings.NewReader(tc.csv))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func TestFullSpaceQueriesShareOneAnalyzer(t *testing.T) {
	s, ts := newTestServer(t, nil)
	// Different weights without a region parameter all verify against the
	// same full-space analyzer: weights pick the ranking, not the region.
	for _, w := range []string{"1,1", "0.3,0.7", "0.9,0.1"} {
		if code, _ := get(t, ts, "/v1/fig1/verify?weights="+w, nil); code != http.StatusOK {
			t.Fatalf("weights %s: %d", w, code)
		}
	}
	if _, builds, _, _ := s.analyzers.snapshot(); builds != 1 {
		t.Errorf("full-space queries built %d analyzers, want 1", builds)
	}
}

func TestAnalyzerPoolIsBounded(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxAnalyzers = 2 })
	// Sweep seeds to force distinct analyzer keys beyond the bound.
	for seed := 1; seed <= 5; seed++ {
		path := fmt.Sprintf("/v1/fig1/verify?weights=1,1&seed=%d", seed)
		if code, _ := get(t, ts, path, nil); code != http.StatusOK {
			t.Fatalf("seed %d: %d", seed, code)
		}
	}
	stats, builds, _, evictions := s.analyzers.snapshot()
	if len(stats) > 2 {
		t.Errorf("%d resident analyzers, bound is 2", len(stats))
	}
	if builds != 5 || evictions != 3 {
		t.Errorf("builds=%d evictions=%d, want 5/3", builds, evictions)
	}
}

func TestOversizedUploadGets413(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxUploadBytes = 64 })
	big := "id,x1,x2\n" + strings.Repeat("item,0.5,0.5\n", 50)
	resp, err := http.Post(ts.URL+"/datasets/big", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d, want 413", resp.StatusCode)
	}
}

func TestCacheServesRepeatedQueries(t *testing.T) {
	_, ts := newTestServer(t, nil)
	path := "/v1/fig1/toph?h=4"
	code, hdr := get(t, ts, path, nil)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first request: %d cache=%q", code, hdr.Get("X-Cache"))
	}
	code, hdr = get(t, ts, path, nil)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second request: %d cache=%q", code, hdr.Get("X-Cache"))
	}
	var stats struct {
		Cache struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			HitRate float64 `json:"hit_rate"`
			Size    int     `json:"size"`
		} `json:"cache"`
		Analyzers struct {
			Builds   int64 `json:"builds"`
			Resident []struct {
				Key        string `json:"key"`
				PoolBuilt  bool   `json:"pool_built"`
				PoolBuilds int64  `json:"pool_builds"`
			} `json:"resident"`
		} `json:"analyzers"`
	}
	if code, _ := get(t, ts, "/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	if stats.Cache.Hits < 1 || stats.Cache.Misses < 1 || stats.Cache.HitRate <= 0 || stats.Cache.Size < 1 {
		t.Errorf("cache stats %+v", stats.Cache)
	}
	if stats.Analyzers.Builds < 1 || len(stats.Analyzers.Resident) < 1 {
		t.Errorf("analyzer stats %+v", stats.Analyzers)
	}
}
