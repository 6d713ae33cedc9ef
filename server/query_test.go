package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// postJSON posts body to path and decodes the JSON response into v (when
// non-nil), returning status and headers.
func postJSON(t *testing.T, ts string, path, body string, v any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(ts+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(buf.Bytes(), v); err != nil {
			t.Fatalf("POST %s: bad JSON (%v):\n%s", path, err, buf.String())
		}
	}
	return resp.StatusCode, resp.Header
}

// TestQueryHeterogeneous drives one POST /v1/query mixing all six operation
// kinds against the 3D dataset and checks each payload.
func TestQueryHeterogeneous(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{
		"dataset": "ind3",
		"samples": 5000,
		"queries": [
			{"op": "verify", "weights": [1, 1, 1]},
			{"op": "toph", "h": 3},
			{"op": "above", "s": 0.05},
			{"op": "itemrank", "item": "i1", "n": 2000, "k": 3},
			{"op": "boundary", "weights": [1, 1, 1]},
			{"op": "enumerate", "limit": 5}
		]
	}`
	var got queryResponse
	code, _ := postJSON(t, ts.URL, "/v1/query", body, &got)
	if code != http.StatusOK {
		t.Fatalf("query = %d: %+v", code, got)
	}
	if got.Dataset != "ind3" || len(got.Results) != 6 {
		t.Fatalf("response = %+v", got)
	}
	for i, r := range got.Results {
		if r.Error != "" {
			t.Fatalf("results[%d] (%s) errored: %s", i, r.Op, r.Error)
		}
	}
	v := got.Results[0]
	if v.Op != "verify" || v.Stability == nil || *v.Stability <= 0 || *v.Stability > 1 || v.Exact == nil || *v.Exact {
		t.Errorf("verify result = %+v", v)
	}
	if v.SampleCount != 5000 || v.ConfidenceError == nil || *v.ConfidenceError <= 0 {
		t.Errorf("verify MC metadata = %+v", v)
	}
	if n := len(got.Results[1].Rankings); n != 3 || got.Results[1].H != 3 {
		t.Errorf("toph returned %d rankings", n)
	}
	for i, r := range got.Results[2].Rankings {
		if r.Stability < 0.05 {
			t.Errorf("above[%d] stability %v below threshold", i, r.Stability)
		}
	}
	ir := got.Results[3]
	if ir.Samples != 2000 || ir.Best < 1 || ir.Item == nil || ir.Item.ID != "i1" || ir.ProbabilityTop == nil {
		t.Errorf("itemrank result = %+v", ir)
	}
	if len(got.Results[4].Facets) == 0 {
		t.Error("boundary returned no facets")
	}
	if n := len(got.Results[5].Rankings); n == 0 || n > 5 {
		t.Errorf("enumerate returned %d rankings", n)
	}
	// The whole list shares one cursor: toph must be a prefix of enumerate.
	for i := range got.Results[1].Rankings {
		if got.Results[1].Rankings[i].Stability != got.Results[5].Rankings[i].Stability {
			t.Errorf("toph[%d] diverges from the shared enumeration", i)
		}
	}
}

// TestQueryPerOpError checks one failing operation doesn't fail the batch.
func TestQueryPerOpError(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// t1..t5 reversed: t1 is dominated, so this explicit ranking is
	// infeasible while the weights-induced one succeeds.
	body := `{
		"dataset": "fig1",
		"queries": [
			{"op": "verify", "ranking": "t1,t5,t3,t4,t2"},
			{"op": "verify", "weights": [1, 1]}
		]
	}`
	var got queryResponse
	code, _ := postJSON(t, ts.URL, "/v1/query", body, &got)
	if code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	if got.Results[0].Error == "" {
		t.Error("infeasible ranking should carry a per-op error")
	}
	if got.Results[1].Error != "" || got.Results[1].Stability == nil {
		t.Errorf("good op alongside a failing one: %+v", got.Results[1])
	}
}

// TestQueryInfeasibleErrorText pins the text /v1/query renders into
// results[i].error for an infeasible verify, on the exact 2D path and the
// Monte-Carlo d = 3 path: the message is wire format, so it must not drift.
func TestQueryInfeasibleErrorText(t *testing.T) {
	s, ts := newTestServer(t, nil)
	// In ind3, rank an item first even though another item dominates it: no
	// non-negative weights induce that order.
	ds, _, _, _ := s.registry.Get("ind3")
	var ranking string
	for i := 0; i < ds.N() && ranking == ""; i++ {
		for j := 0; j < ds.N(); j++ {
			if i == j || !dominates(ds.Attrs(j), ds.Attrs(i)) {
				continue
			}
			ids := []string{ds.Item(i).ID}
			for k := 0; k < ds.N(); k++ {
				if k != i {
					ids = append(ids, ds.Item(k).ID)
				}
			}
			ranking = strings.Join(ids, ",")
			break
		}
	}
	if ranking == "" {
		t.Fatal("ind3 has no dominated item")
	}
	const want = "core: ranking is not achievable in the region of interest"
	for _, tc := range []struct{ dataset, ranking string }{
		{"fig1", "t1,t5,t3,t4,t2"},
		{"ind3", ranking},
	} {
		body := fmt.Sprintf(`{"dataset": %q, "samples": 2000, "queries": [{"op": "verify", "ranking": %q}]}`, tc.dataset, tc.ranking)
		var got queryResponse
		code, _ := postJSON(t, ts.URL, "/v1/query", body, &got)
		if code != http.StatusOK || len(got.Results) != 1 {
			t.Fatalf("%s: query = %d %+v", tc.dataset, code, got)
		}
		if got.Results[0].Error != want {
			t.Errorf("%s: results[0].error = %q, want %q", tc.dataset, got.Results[0].Error, want)
		}
	}
}

// dominates reports whether a is at least b on every attribute and above it
// on one.
func dominates(a, b []float64) bool {
	above := false
	for k := range a {
		if a[k] < b[k] {
			return false
		}
		above = above || a[k] > b[k]
	}
	return above
}

// The TestBatch* tests pin multi-operation batches on POST /v1/query, the
// surface that replaced the removed POST /batch.

// TestBatchVerifyAndTopH: a mixed batch over the Monte-Carlo 3D dataset
// agrees with the corresponding single-query GET endpoints.
func TestBatchVerifyAndTopH(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var batch queryResponse
	code, _ := postJSON(t, ts.URL, "/v1/query", `{
		"dataset": "ind3",
		"queries": [
			{"op": "verify", "weights": [1, 1, 1]},
			{"op": "verify", "weights": [2, 1, 0.5]},
			{"op": "toph", "h": 3},
			{"op": "toph", "h": 5}
		]
	}`, &batch)
	if code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("batch has %d results, want 4", len(batch.Results))
	}
	// Cross-check each verify entry against the single-query endpoint (same
	// seed and sample count select the same shared analyzer and pool).
	for i, wstr := range []string{"1,1,1", "2,1,0.5"} {
		var single getResponse
		if sc, _ := get(t, ts, "/v1/ind3/verify?weights="+wstr, &single); sc != http.StatusOK {
			t.Fatalf("single verify %d = %d", i, sc)
		}
		if batch.Results[i].Error != "" {
			t.Fatalf("verify[%d]: unexpected error %q", i, batch.Results[i].Error)
		}
		if *batch.Results[i].Stability != *single.Stability {
			t.Errorf("verify[%d]: batch %v vs single %v", i, *batch.Results[i].Stability, *single.Stability)
		}
	}
	top3, top5 := batch.Results[2], batch.Results[3]
	if top3.H != 3 || top5.H != 5 {
		t.Errorf("toph h = %d, %d", top3.H, top5.H)
	}
	if len(top3.Rankings) > 3 {
		t.Errorf("toph[0] returned %d rankings for h=3", len(top3.Rankings))
	}
	// The h=3 answer must be a prefix of the h=5 answer.
	for i, r := range top3.Rankings {
		if r.Stability != top5.Rankings[i].Stability {
			t.Errorf("toph prefix mismatch at %d", i)
		}
	}
}

// TestBatchExact2D: batch verification against the exact 2D engine.
func TestBatchExact2D(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var batch queryResponse
	code, _ := postJSON(t, ts.URL, "/v1/query", `{"dataset": "fig1", "queries": [{"op": "verify", "weights": [1, 1]}]}`, &batch)
	if code != http.StatusOK || len(batch.Results) != 1 {
		t.Fatalf("batch = %d %+v", code, batch)
	}
	if v := batch.Results[0]; !*v.Exact || *v.Stability <= 0 {
		t.Errorf("2D batch verify: %+v", v)
	}
}

// TestBatchPerItemError: an infeasible ranking reports its own error while
// the rest of the batch succeeds.
func TestBatchPerItemError(t *testing.T) {
	s, ts := newTestServer(t, nil)
	ds, _, _, _ := s.registry.Get("ind3")
	// Build a worst-to-best id list; with 12 independent items some adjacent
	// pair is dominated, making the reversed ranking infeasible. If not,
	// the entry still answers (with stability ~0), so only assert on the
	// feasible entry and on batch integrity.
	ids := make([]string, ds.N())
	for i := 0; i < ds.N(); i++ {
		ids[ds.N()-1-i] = ds.Item(i).ID
	}
	body, err := json.Marshal(map[string]any{
		"dataset": "ind3",
		"queries": []map[string]any{
			{"op": "verify", "weights": []float64{1, 1, 1}},
			{"op": "verify", "ranking": strings.Join(ids, ",")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var batch queryResponse
	code, _ := postJSON(t, ts.URL, "/v1/query", string(body), &batch)
	if code != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("batch = %d %+v", code, batch)
	}
	if v := batch.Results[0]; v.Error != "" || *v.Stability <= 0 {
		t.Errorf("feasible entry: %+v", v)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatchOps = 4 })
	cases := []struct {
		name, body string
		code       int
	}{
		{"empty ops", `{"dataset": "ind3"}`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset": "nope", "queries": [{"op": "toph", "h": 1}]}`, http.StatusNotFound},
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"dataset": "ind3", "topk": [1]}`, http.StatusBadRequest},
		{"both weights and ranking", `{"dataset": "ind3", "queries": [{"op": "verify", "weights": [1,1,1], "ranking": "a,b"}]}`, http.StatusBadRequest},
		{"verify without either", `{"dataset": "ind3", "queries": [{"op": "verify"}]}`, http.StatusBadRequest},
		{"h out of range", `{"dataset": "ind3", "queries": [{"op": "toph", "h": 0}]}`, http.StatusBadRequest},
		{"bad region weights", `{"dataset": "ind3", "weights": [1, 2], "queries": [{"op": "toph", "h": 1}]}`, http.StatusBadRequest},
		{"bad theta", `{"dataset": "ind3", "weights": [1,1,1], "theta": -2, "queries": [{"op": "toph", "h": 1}]}`, http.StatusBadRequest},
		{"bad samples", `{"dataset": "ind3", "samples": 0, "queries": [{"op": "toph", "h": 1}]}`, http.StatusBadRequest},
		{"trailing data", `{"dataset": "ind3", "queries": [{"op": "toph", "h": 1}]} {"x": 1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e errorResponse
			if code, _ := postJSON(t, ts.URL, "/v1/query", tc.body, &e); code != tc.code {
				t.Errorf("code = %d, want %d (error %q)", code, tc.code, e.Error)
			}
		})
	}
}

// TestBatchBodyTooLarge: an oversized body maps to 413.
func TestBatchBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// A syntactically valid prefix forces the decoder to read past the
	// limit, so the MaxBytesReader (not a syntax error) rejects it.
	big := append([]byte(`{"dataset": "`), bytes.Repeat([]byte("x"), maxQueryBody+1)...)
	big = append(big, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413", resp.StatusCode)
	}
}

// TestBatchSharesAnalyzer: a batch and the equivalent GET queries coalesce
// onto one analyzer, so the pool is built exactly once.
func TestBatchSharesAnalyzer(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, _ := postJSON(t, ts.URL, "/v1/query", `{"dataset": "ind3", "queries": [{"op": "toph", "h": 2}]}`, nil); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if code, _ := get(t, ts, "/v1/ind3/verify?weights=1,1,1", nil); code != http.StatusOK {
		t.Fatalf("verify = %d", code)
	}
	var stats struct {
		Analyzers struct {
			Resident []analyzerStat `json:"resident"`
		} `json:"analyzers"`
		Workers int `json:"workers"`
	}
	if code, _ := get(t, ts, "/statsz", &stats); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	if stats.Workers < 1 {
		t.Errorf("statsz workers = %d, want >= 1", stats.Workers)
	}
	if len(stats.Analyzers.Resident) != 1 {
		t.Fatalf("%d resident analyzers, want 1 (batch and GET should share)", len(stats.Analyzers.Resident))
	}
	st := stats.Analyzers.Resident[0]
	if st.PoolBuilds != 1 || !st.PoolBuilt {
		t.Errorf("pool builds = %d built = %v, want exactly 1 shared build", st.PoolBuilds, st.PoolBuilt)
	}
	if st.Workers < 1 {
		t.Errorf("analyzer workers = %d, want >= 1", st.Workers)
	}
	if st.PoolBuildMS <= 0 {
		t.Errorf("pool_build_ms = %v, want > 0", st.PoolBuildMS)
	}
}

// TestRemovedRoutes: POST /batch and the unversioned PATCH /datasets/{name}
// are gone; their successors are POST /v1/query and PATCH
// /v1/datasets/{name}.
func TestRemovedRoutes(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, _ := postJSON(t, ts.URL, "/batch", `{"dataset": "ind3", "toph": [1]}`, nil); code != http.StatusNotFound {
		t.Errorf("POST /batch = %d, want 404", code)
	}
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/datasets/ind3", strings.NewReader(`{"deltas":[{"op":"remove","id":"i2"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PATCH /datasets/ind3 = %d, want 405", resp.StatusCode)
	}
}

// TestQueryValidation covers the request-level failure modes, including the
// 413 operation cap.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatchOps = 3 })
	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown dataset", `{"dataset":"nope","queries":[{"op":"toph","h":1}]}`, http.StatusNotFound},
		{"no queries", `{"dataset":"fig1","queries":[]}`, http.StatusBadRequest},
		{"unknown op", `{"dataset":"fig1","queries":[{"op":"wat"}]}`, http.StatusBadRequest},
		{"bad h", `{"dataset":"fig1","queries":[{"op":"toph","h":0}]}`, http.StatusBadRequest},
		{"bad s", `{"dataset":"fig1","queries":[{"op":"above","s":2}]}`, http.StatusBadRequest},
		{"verify needs target", `{"dataset":"fig1","queries":[{"op":"verify"}]}`, http.StatusBadRequest},
		{"verify both targets", `{"dataset":"fig1","queries":[{"op":"verify","weights":[1,1],"ranking":"t1,t2,t3,t4,t5"}]}`, http.StatusBadRequest},
		{"unknown item", `{"dataset":"fig1","queries":[{"op":"itemrank","item":"zz"}]}`, http.StatusBadRequest},
		{"open enumerate", `{"dataset":"fig1","queries":[{"op":"enumerate"}]}`, http.StatusBadRequest},
		{"bad region", `{"dataset":"fig1","theta":9,"queries":[{"op":"toph","h":1}]}`, http.StatusBadRequest},
		{"ops over cap", `{"dataset":"fig1","queries":[{"op":"toph","h":1},{"op":"toph","h":1},{"op":"toph","h":1},{"op":"toph","h":1}]}`, http.StatusRequestEntityTooLarge},
		{"trailing data", `{"dataset":"fig1","queries":[{"op":"toph","h":1}]} garbage`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := postJSON(t, ts.URL, "/v1/query", tc.body, nil)
			if code != tc.want {
				t.Errorf("%s: code = %d, want %d", tc.name, code, tc.want)
			}
		})
	}
}

// TestQueryConcurrent hammers POST /v1/query from many goroutines sharing
// one analyzer key; meaningful under -race, and the pool must build once.
func TestQueryConcurrent(t *testing.T) {
	s, ts := newTestServer(t, nil)
	body := `{"dataset":"ind3","samples":3000,"queries":[{"op":"verify","weights":[1,1,1]},{"op":"toph","h":2}]}`
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats, builds, _, _ := s.analyzers.snapshot()
	if builds != 1 {
		t.Errorf("%d analyzer builds for identical concurrent queries, want 1", builds)
	}
	for _, st := range stats {
		if st.PoolBuilds != 1 {
			t.Errorf("analyzer %s built its pool %d times", st.Key, st.PoolBuilds)
		}
	}
}

// TestQueryAdaptive drives adaptive verification through POST /v1/query: an
// adaptive request stops early (sample_count < samples, adaptive true) while
// staying keyed apart from the exact analyzer, the parameter is validated,
// and /statsz reports the early stops.
func TestQueryAdaptive(t *testing.T) {
	s, ts := newTestServer(t, nil)
	adaptiveBody := `{"dataset":"ind3","samples":20000,"adaptive":0.02,"queries":[{"op":"verify","weights":[1,1,1]}]}`
	exactBody := `{"dataset":"ind3","samples":20000,"queries":[{"op":"verify","weights":[1,1,1]}]}`

	var adaptive, exact queryResponse
	if code, _ := postJSON(t, ts.URL, "/v1/query", adaptiveBody, &adaptive); code != http.StatusOK {
		t.Fatalf("adaptive query = %d: %+v", code, adaptive)
	}
	if code, _ := postJSON(t, ts.URL, "/v1/query", exactBody, &exact); code != http.StatusOK {
		t.Fatalf("exact query = %d", code)
	}
	av, ev := adaptive.Results[0], exact.Results[0]
	if av.Error != "" || ev.Error != "" {
		t.Fatalf("verify errored: %q / %q", av.Error, ev.Error)
	}
	if !av.Adaptive || av.SampleCount >= 20000 || av.SampleCount < 1 {
		t.Errorf("adaptive verify = adaptive=%v sample_count=%d, want early stop", av.Adaptive, av.SampleCount)
	}
	if *av.ConfidenceError > 0.02 {
		t.Errorf("adaptive confidence error %v above the 0.02 target", *av.ConfidenceError)
	}
	if ev.Adaptive || ev.SampleCount != 20000 {
		t.Errorf("exact verify = adaptive=%v sample_count=%d", ev.Adaptive, ev.SampleCount)
	}
	// Same seed and pool: the adaptive estimate is the prefix estimate, close
	// to (but in general not equal to) the full-pool one.
	if diff := *av.Stability - *ev.Stability; diff > 0.05 || diff < -0.05 {
		t.Errorf("adaptive stability %v far from exact %v", *av.Stability, *ev.Stability)
	}

	// Adaptive and exact requests must not share an analyzer key.
	stats, builds, _, _ := s.analyzers.snapshot()
	if builds != 2 {
		t.Errorf("adaptive + exact requests made %d analyzer builds, want 2", builds)
	}
	sawAdaptive := false
	for _, st := range stats {
		if st.AdaptiveTarget == 0.02 {
			sawAdaptive = true
			if !strings.Contains(st.Key, "adaptive=0.02") {
				t.Errorf("adaptive analyzer key %q lacks the adaptive term", st.Key)
			}
			if st.AdaptiveStops < 1 || st.AdaptiveRowsSaved < 1 {
				t.Errorf("adaptive analyzer stats = stops %d, rows saved %d", st.AdaptiveStops, st.AdaptiveRowsSaved)
			}
		}
	}
	if !sawAdaptive {
		t.Error("no resident analyzer reports the adaptive target")
	}

	// /statsz surfaces the same counters.
	var statsz struct {
		Analyzers struct {
			Resident []analyzerStat `json:"resident"`
		} `json:"analyzers"`
	}
	if code, _ := get(t, ts, "/statsz", &statsz); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	sawAdaptive = false
	for _, st := range statsz.Analyzers.Resident {
		if st.AdaptiveTarget == 0.02 && st.AdaptiveStops >= 1 {
			sawAdaptive = true
		}
	}
	if !sawAdaptive {
		t.Error("/statsz does not report the adaptive analyzer's early stops")
	}

	// Validation: adaptive must be in [0, 1).
	for _, bad := range []string{"-0.1", "1", "1.5"} {
		body := `{"dataset":"ind3","adaptive":` + bad + `,"queries":[{"op":"verify","weights":[1,1,1]}]}`
		if code, _ := postJSON(t, ts.URL, "/v1/query", body, nil); code != http.StatusBadRequest {
			t.Errorf("adaptive=%s accepted with status %d", bad, code)
		}
	}
}

// TestJobAdaptive: the async jobs path carries the adaptive parameter —
// a job's verify result matches the synchronous adaptive answer bit for bit.
func TestJobAdaptive(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"dataset":"ind3","samples":20000,"adaptive":0.02,"queries":[{"op":"verify","weights":[1,1,1]}]}`

	j, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %+v", code, j)
	}
	done := pollJob(t, ts, j.ID, 10*time.Second)
	if done.Status != string(jobDone) || done.Result == nil {
		t.Fatalf("job finished as %+v", done)
	}
	jv := done.Result.Results[0]
	if jv.Error != "" || !jv.Adaptive {
		t.Fatalf("job verify = %+v", jv)
	}

	var sync queryResponse
	if code, _ := postJSON(t, ts.URL, "/v1/query", body, &sync); code != http.StatusOK {
		t.Fatalf("sync query = %d", code)
	}
	sv := sync.Results[0]
	if *jv.Stability != *sv.Stability || jv.SampleCount != sv.SampleCount || jv.Adaptive != sv.Adaptive {
		t.Errorf("job adaptive verify %+v != sync %+v", jv, sv)
	}
}
