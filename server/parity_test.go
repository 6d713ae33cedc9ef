package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"stablerank"
)

// TestQuerySurfacesAgree is the library-vs-HTTP pair: every query asked
// three ways — a GET endpoint, an operation of POST /v1/query, and the
// library's Analyzer.Do at the same seed and samples — gives the same
// answer, bit for bit, on the exact 2D engine (fig1) and the Monte-Carlo 3D
// engine (ind3).
func TestQuerySurfacesAgree(t *testing.T) {
	const seed, samples = 5, 4000
	s, ts := newTestServer(t, nil)
	for _, dc := range []struct {
		name      string
		weights   []float64
		wstr      string
		cosine    float64
		item      string
		threshold float64
	}{
		{name: "fig1", weights: []float64{1, 1}, wstr: "1,1", cosine: 0.99, item: "t2", threshold: 0.1},
		{name: "ind3", weights: []float64{1, 1, 1}, wstr: "1,1,1", cosine: 0.98, item: "i1", threshold: 0.02},
	} {
		ds, _, _, _ := s.registry.Get(dc.name)
		published := stablerank.RankingOf(ds, dc.weights)
		ids := make([]string, ds.N())
		for i, idx := range published.Order {
			ids[i] = ds.Item(idx).ID
		}
		idx, _ := itemIndex(ds, dc.item)
		// A GET rankings page enumerates one past its end, to know has_more.
		const page, perPage, depth = 1, 2, 5
		for _, tc := range []struct {
			name   string
			cone   bool   // region: a cosine cone around the weights, else the full space
			get    string // GET operation path and parameters
			spec   querySpec
			query  stablerank.Query
			isPage bool
		}{
			{name: "verify weights", get: "verify?weights=" + dc.wstr,
				spec: querySpec{Op: "verify", Weights: dc.weights}, query: stablerank.VerifyQuery{Ranking: published}},
			{name: "verify ranking in cone", cone: true, get: "verify?ranking=" + strings.Join(ids, ","),
				spec: querySpec{Op: "verify", Ranking: strings.Join(ids, ",")}, query: stablerank.VerifyQuery{Ranking: published}},
			{name: "toph", get: "toph?h=3",
				spec: querySpec{Op: "toph", H: 3}, query: stablerank.TopHQuery{H: 3}},
			{name: "above", get: fmt.Sprintf("above?s=%v", dc.threshold),
				spec: querySpec{Op: "above", S: dc.threshold}, query: stablerank.AboveQuery{Threshold: dc.threshold}},
			{name: "itemrank", get: "itemrank?item=" + dc.item + "&n=2000&k=2",
				spec: querySpec{Op: "itemrank", Item: dc.item, N: 2000, K: 2}, query: stablerank.ItemRankQuery{Item: idx, Samples: 2000}},
			{name: "rankings page", get: fmt.Sprintf("rankings?page=%d&per_page=%d", page, perPage), isPage: true,
				spec: querySpec{Op: "enumerate", Limit: depth}, query: stablerank.EnumerateQuery{Limit: depth}},
		} {
			t.Run(dc.name+"/"+tc.name, func(t *testing.T) {
				req := queryRequest{Dataset: dc.name, Seed: ptr(int64(seed)), Samples: ptr(samples), Queries: []querySpec{tc.spec}}
				opts := []stablerank.Option{stablerank.WithSeed(seed), stablerank.WithSampleCount(samples)}
				path := fmt.Sprintf("/v1/%s/%s&seed=%d&samples=%d", dc.name, tc.get, seed, samples)
				if tc.cone {
					req.Weights, req.Cosine = dc.weights, dc.cosine
					opts = append(opts, stablerank.WithCosineSimilarity(dc.weights, dc.cosine))
					path += fmt.Sprintf("&weights=%s&cosine=%v", dc.wstr, dc.cosine)
				}

				var getBody map[string]any
				if code, _ := get(t, ts, path, &getBody); code != http.StatusOK {
					t.Fatalf("GET %s = %d: %v", path, code, getBody)
				}
				if getBody["dataset"] != dc.name {
					t.Fatalf("GET dataset = %v", getBody["dataset"])
				}

				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				var post struct {
					Results []map[string]any `json:"results"`
				}
				if code, _ := postJSON(t, ts.URL, "/v1/query", string(body), &post); code != http.StatusOK {
					t.Fatalf("POST /v1/query = %d", code)
				}
				postRes := post.Results[0]

				a, err := stablerank.New(ds, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.Do(context.Background(), tc.query)
				if err != nil || res[0].Err != nil {
					t.Fatalf("Do: %v / %v", err, res[0].Err)
				}
				libRes := jsonValue(t, renderOpResult(ds, tc.spec, tc.query, res[0]))

				if !reflect.DeepEqual(postRes, libRes) {
					t.Errorf("POST /v1/query result differs from Analyzer.Do:\n post %v\n  lib %v", postRes, libRes)
				}
				if tc.isPage {
					rankings := postRes["rankings"].([]any)
					if want := rankings[page*perPage : (page+1)*perPage]; !reflect.DeepEqual(getBody["results"], want) {
						t.Errorf("GET page differs from the enumerate result:\n  get %v\n want %v", getBody["results"], want)
					}
					if want := len(rankings) == depth; getBody["has_more"] != want {
						t.Errorf("GET page has_more = %v, want %v", getBody["has_more"], want)
					}
					return
				}
				delete(getBody, "dataset")
				if !reflect.DeepEqual(getBody, postRes) {
					t.Errorf("GET answer differs from the POST /v1/query result:\n  get %v\n post %v", getBody, postRes)
				}
			})
		}
	}
}

func ptr[T any](v T) *T { return &v }

// jsonValue round-trips v through JSON into the generic form a decoded
// response body takes.
func jsonValue(t *testing.T, v any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}
