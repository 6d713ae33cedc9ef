package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stablerank"
)

// awkwardIDs are item IDs and dataset names that exercise every escaping
// rule: quotes, backslashes, control bytes, HTML metacharacters, U+2028 and
// U+2029, non-ASCII text, invalid UTF-8, the empty string and a duplicate.
var awkwardIDs = []string{
	`a<b&c>`, `say "hi"`, `back\slash`, "tab\tnl\ncr\r", "ctl\x00\x01\x1f\x7f", "bs\bff\f",
	"ls\u2028ps\u2029", "naïve café 日本", "bad\xffutf8\xc3", "\xed\xa0\x80surrogate", "", "</script>",
	"plain", "plain",
}

// fuzzChoices reads choices off fuzz data, yielding zeros once it runs out.
type fuzzChoices struct{ data []byte }

func (c *fuzzChoices) byte() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

func (c *fuzzChoices) intn(n int) int { return int(c.byte()) % n }
func (c *fuzzChoices) bool() bool     { return c.byte()&1 == 1 }

// float draws from encoding/json's formatting edges, or any bit pattern;
// non-finite values only when nonFinite is set.
func (c *fuzzChoices) float(nonFinite bool) float64 {
	tenth, fifth := 0.1, 0.2
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		-1e-6, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, tenth + fifth,
		math.MaxFloat64, -math.MaxFloat64, 1, 0.5, 1e-7, 123456789, 1e20, 0.087962962962963,
	}
	switch k := c.intn(4); {
	case k == 0:
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(c.byte())
		}
		if f := math.Float64frombits(bits); nonFinite || !(math.IsNaN(f) || math.IsInf(f, 0)) {
			return f
		}
		return 0.25
	case nonFinite && c.intn(8) == 0:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[c.intn(3)]
	default:
		return edges[c.intn(len(edges))]
	}
}

func (c *fuzzChoices) floats(nonFinite bool) []float64 {
	switch k := c.intn(4); k {
	case 0:
		return nil
	case 1:
		return []float64{}
	default:
		v := make([]float64, k)
		for i := range v {
			v[i] = c.float(nonFinite)
		}
		return v
	}
}

// order is an empty, partial or full ranking of n items, or one past the
// response truncation when n allows.
func (c *fuzzChoices) order(n int) []int {
	perm := rand.New(rand.NewSource(int64(c.byte()))).Perm(n)
	switch c.intn(4) {
	case 0:
		return nil
	case 1:
		return perm[:c.intn(n)+1]
	default:
		return perm
	}
}

func (c *fuzzChoices) stables(n int, nonFinite bool) []stablerank.Stable {
	out := make([]stablerank.Stable, c.intn(4))
	for i := range out {
		out[i] = stablerank.Stable{
			Ranking:         stablerank.Ranking{Order: c.order(n)},
			Stability:       c.float(nonFinite),
			Weights:         c.floats(nonFinite),
			Exact:           c.bool(),
			ConfidenceError: c.float(nonFinite),
		}
	}
	return out
}

// fuzzDataset builds a dataset of awkward IDs; one choice in four makes it
// longer than the response truncation.
func (c *fuzzChoices) dataset() *stablerank.Dataset {
	n := 1 + c.intn(6)
	if c.intn(4) == 0 {
		n = maxRankingItems + 20
	}
	ds := stablerank.MustDataset(2)
	for i := range n {
		id := fmt.Sprintf("x%d", i)
		if c.intn(3) != 0 {
			id = awkwardIDs[c.intn(len(awkwardIDs))]
		}
		ds.MustAdd(id, float64(i), float64(n-i))
	}
	return ds
}

// fuzzResult draws one operation: its spec, resolved query and result.
func (c *fuzzChoices) fuzzResult(ds *stablerank.Dataset, nonFinite bool) (querySpec, stablerank.Query, stablerank.Result) {
	n := ds.N()
	ops := []string{"verify", "toph", "above", "enumerate", "itemrank", "boundary"}
	spec := querySpec{Op: ops[c.intn(len(ops))]}
	if c.intn(6) == 0 {
		return spec, nil, stablerank.Result{Err: errors.New(awkwardIDs[c.intn(len(awkwardIDs))])}
	}
	switch spec.Op {
	case "verify":
		q := stablerank.VerifyQuery{Ranking: stablerank.Ranking{Order: c.order(n)}}
		v := &stablerank.Verification{
			Stability:       c.float(nonFinite),
			ConfidenceError: c.float(nonFinite),
			Exact:           c.bool(),
			SampleCount:     []int{0, 1, 4096, 100_000}[c.intn(4)],
			Adaptive:        c.bool(),
		}
		return spec, q, stablerank.Result{Query: q, Verification: v}
	case "toph":
		spec.H = c.intn(12)
		q := stablerank.TopHQuery{H: spec.H}
		return spec, q, stablerank.Result{Query: q, Stables: c.stables(n, nonFinite)}
	case "above":
		spec.S = c.float(nonFinite)
		q := stablerank.AboveQuery{Threshold: spec.S}
		return spec, q, stablerank.Result{Query: q, Stables: c.stables(n, nonFinite)}
	case "enumerate":
		spec.Limit = c.intn(12)
		q := stablerank.EnumerateQuery{Limit: spec.Limit}
		return spec, q, stablerank.Result{Query: q, Stables: c.stables(n, nonFinite)}
	case "itemrank":
		idx := c.intn(n)
		spec.Item, spec.K = ds.Item(idx).ID, c.intn(14)
		dist := &stablerank.RankDistribution{Item: idx, Counts: make(map[int]int)}
		for range c.intn(8) {
			rank, count := 1+c.intn(15), 1+c.intn(300)
			dist.Counts[rank] += count
			dist.Samples += count
			if dist.Best == 0 || rank < dist.Best {
				dist.Best = rank
			}
			dist.Worst = max(dist.Worst, rank)
		}
		q := stablerank.ItemRankQuery{Item: idx, Samples: dist.Samples}
		return spec, q, stablerank.Result{Query: q, RankDistribution: dist}
	default:
		q := stablerank.BoundaryQuery{Ranking: stablerank.Ranking{Order: c.order(n)}}
		facets := make([]stablerank.BoundaryFacet, c.intn(4))
		for i := range facets {
			facets[i].Upper, facets[i].Lower = c.intn(n), c.intn(n)
			facets[i].Halfspace = stablerank.Halfspace{Normal: c.floats(nonFinite), Positive: true}
		}
		return spec, q, stablerank.Result{Query: q, Facets: facets}
	}
}

// FuzzRenderMatchesJSON renders random answers of every surface both ways
// — the renderer, and encoding/json over the oracle's structs — and requires
// the same bytes, or an error from both when a float is not finite.
func FuzzRenderMatchesJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("render every answer once"))
	f.Add([]byte{1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, 40))
	f.Add(bytes.Repeat([]byte{0xff, 0x80, 0x7f, 0x01}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzChoices{data: data}
		nonFinite := c.intn(4) == 0
		ds := c.dataset()
		name := awkwardIDs[c.intn(len(awkwardIDs))]
		items := newItemTable(ds)

		check := func(surface string, oracle any, newline bool, render func(*renderer)) {
			t.Helper()
			want, wantErr := oracleJSON(oracle)
			rd := &renderer{items: items}
			render(rd)
			got := rd.b
			if newline {
				if !bytes.HasSuffix(got, []byte("\n")) {
					t.Fatalf("%s: renderer line lacks its newline: %q", surface, got)
				}
				got = got[:len(got)-1]
			}
			switch {
			case (wantErr != nil) != (rd.err != nil):
				t.Fatalf("%s: encoding/json error %v, renderer error %v", surface, wantErr, rd.err)
			case wantErr == nil && !bytes.Equal(got, want):
				t.Fatalf("%s differs:\nrenderer      %q\nencoding/json %q", surface, got, want)
			}
		}

		nops := 1 + c.intn(4)
		specs := make([]querySpec, nops)
		queries := make([]stablerank.Query, nops)
		results := make([]stablerank.Result, nops)
		oracle := queryResponse{Dataset: name, Results: make([]opResult, nops)}
		for i := range specs {
			specs[i], queries[i], results[i] = c.fuzzResult(ds, nonFinite)
			oracle.Results[i] = renderOpResult(ds, specs[i], queries[i], results[i])
			check("GET answer", getResponse{Dataset: name, opResult: oracle.Results[i]}, false, func(rd *renderer) {
				rd.getAnswer(name, specs[i], queries[i], results[i])
			})
			stables := results[i].Stables
			if len(stables) == 0 {
				continue
			}
			page := querySpec{Op: "enumerate", page: c.intn(3), perPage: 1 + c.intn(3)}
			check("rankings page", renderPage(ds, name, page, stables), false, func(rd *renderer) {
				rd.page(name, page, stables)
			})
			for rank, st := range stables {
				cumulative := c.float(nonFinite)
				line := streamLine{
					Rank: rank + 1, Stability: st.Stability, ConfidenceError: st.ConfidenceError, Cumulative: cumulative,
					Exact: st.Exact, Items: itemRefs(ds, st.Ranking.Order), Weights: st.Weights,
				}
				check("stream line", line, true, func(rd *renderer) { rd.streamLine(rank+1, st, cumulative) })
			}
		}
		check("POST /v1/query body and job result", oracle, false, func(rd *renderer) {
			rd.queryBody(name, specs, queries, results)
		})
		count, cumulative, truncated := c.intn(200), c.float(nonFinite), c.bool()
		check("stream summary", streamSummary{Done: true, Count: count, Cumulative: cumulative, Truncated: truncated}, true,
			func(rd *renderer) { rd.streamSummary(count, cumulative, truncated) })
		check("stream error line", streamError{Error: name}, true, func(rd *renderer) { rd.streamError(name) })
	})
}

// TestAnswerEscaping pins one escaping rule for every answer surface: an
// item ID holding <, &, >, a quote and a backslash renders to the same bytes
// in a GET verify, a POST verify, a stream line, a rankings page and a job
// result — escaped as JSON requires, with no HTML escaping.
func TestAnswerEscaping(t *testing.T) {
	const id = `a<b&c>"d\e`
	s, ts := newTestServer(t, nil)
	ds := stablerank.MustDataset(2)
	ds.MustAdd(id, 0.9, 0.2)
	ds.MustAdd("x", 0.5, 0.5)
	ds.MustAdd("y", 0.1, 0.8)
	if err := s.Registry().Add("esc", ds); err != nil {
		t.Fatal(err)
	}
	item := `{"index":0,"id":"a<b&c>\"d\\e"}`

	readBody := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return string(body)
	}
	j, code := submitJob(t, ts, `{"dataset":"esc","queries":[{"op":"toph","h":1}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("job submit = %d", code)
	}
	pollJob(t, ts, j.ID, 10*time.Second)

	bodies := map[string]string{
		"GET verify":   readBody(http.Get(ts.URL + "/v1/esc/verify?weights=1,1")),
		"POST verify":  readBody(http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"dataset":"esc","queries":[{"op":"verify","weights":[1,1]}]}`))),
		"stream line":  readBody(http.Get(ts.URL + "/v1/query/stream?dataset=esc&limit=1")),
		"rankings":     readBody(http.Get(ts.URL + "/v1/esc/rankings?per_page=1")),
		"job result":   readBody(http.Get(ts.URL + "/v1/jobs/" + j.ID)),
		"cached GET":   readBody(http.Get(ts.URL + "/v1/esc/verify?weights=1,1")),
		"itemrank GET": readBody(http.Get(ts.URL + "/v1/esc/itemrank?item=" + strings.NewReplacer("<", "%3C", "&", "%26", ">", "%3E", `"`, "%22", `\`, "%5C").Replace(id))),
	}
	for surface, body := range bodies {
		if !strings.Contains(body, item) {
			t.Errorf("%s does not carry %s:\n%s", surface, item, body)
		}
		if strings.Contains(body, `\u00`) {
			t.Errorf("%s escapes HTML characters:\n%s", surface, body)
		}
	}
}

// TestPatchRaceKeepsItemsWithTheirVersion: PATCHes that rename items race
// verify reads, and every answer must render its ranking with the item
// references of the dataset version it was computed on. Version k names its
// items gk-0 … gk-4 and ranks them by j descending when k is even, ascending
// when k is odd, so a ranking rendered with a neighbouring version's
// references would name one version's items in the other's order.
func TestPatchRaceKeepsItemsWithTheirVersion(t *testing.T) {
	s, ts := newTestServer(t, nil)
	attr := func(k, j int) int {
		if k%2 == 1 {
			return 4 - j
		}
		return j
	}
	ds := stablerank.MustDataset(2)
	ds.MustAdd("anchor", -10, 0)
	for j := range 5 {
		ds.MustAdd(fmt.Sprintf("g0-%d", j), float64(attr(0, j)), 1)
	}
	if err := s.Registry().Add("ren", ds); err != nil {
		t.Fatal(err)
	}
	check := func(body []byte) error {
		var ans struct {
			Ranking []itemRef  `json:"ranking"`
			Results []opResult `json:"results"`
		}
		if err := json.Unmarshal(body, &ans); err != nil {
			return err
		}
		ranking := ans.Ranking
		if len(ans.Results) == 1 {
			ranking = ans.Results[0].Ranking
		}
		if len(ranking) != 6 || ranking[5].ID != "anchor" {
			return fmt.Errorf("ranking %v does not end with the anchor", ranking)
		}
		k := -1
		for pos, ref := range ranking[:5] {
			var v, j int
			if _, err := fmt.Sscanf(ref.ID, "g%d-%d", &v, &j); err != nil {
				return fmt.Errorf("ranking %v: %v", ranking, err)
			}
			if (k >= 0 && v != k) || attr(v, j) != 4-pos {
				return fmt.Errorf("ranking %v is not one version's items in that version's order", ranking)
			}
			k = v
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				var resp *http.Response
				var err error
				if (g+i)%2 == 0 {
					resp, err = http.Post(ts.URL+"/v1/query", "application/json",
						strings.NewReader(`{"dataset":"ren","queries":[{"op":"verify","weights":[1,0.5]}]}`))
				} else {
					resp, err = http.Get(ts.URL + "/v1/ren/verify?weights=1,0.5")
				}
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				}
				if err == nil {
					err = check(body)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range 60 {
			var deltas []string
			for j := range 5 {
				deltas = append(deltas, fmt.Sprintf(`{"op":"remove","id":"g%d-%d"}`, k, j),
					fmt.Sprintf(`{"op":"add","id":"g%d-%d","attrs":[%d,1]}`, k+1, j, attr(k+1, j)))
			}
			req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/ren",
				strings.NewReader(`{"deltas":[`+strings.Join(deltas, ",")+`]}`))
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
				t.Errorf("PATCH %d = %d", k, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// TestWriteJSONEncodeFailureIs500: a body encoding/json cannot encode is
// answered 500 before any status line is written.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("writeJSON(NaN) = %d %s", rec.Code, rec.Body)
	}
}
