package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"stablerank"
)

// The query pipeline, which every query surface runs: decode into a
// queryRequest (a POST /v1/query or /v1/jobs body, or a GET or stream URL),
// place it in a cluster by routingKey, validate it with compileRequest (a job
// with compileQuery, which also resolves its operations), obtain the shared
// analyzer with analyzerFor, resolve the operations and answer them with one
// Analyzer.Do call (one fused sweep of the sample pool for the verify and
// item-rank operations, one cursor for the enumeration-shaped ones), and map
// each library result onto the wire with renderOpResult.

// querySpec is one operation in the request's queries list. Op selects the
// operation; the remaining fields are op-specific and ignored otherwise.
type querySpec struct {
	// Op is one of verify, toph, above, itemrank, boundary, enumerate.
	Op string `json:"op"`
	// Weights/Ranking identify the ranking for verify and boundary: either
	// the ranking induced by weights, or an explicit comma-separated item-ID
	// list.
	Weights []float64 `json:"weights,omitempty"`
	Ranking string    `json:"ranking,omitempty"`
	// H is the toph depth.
	H int `json:"h,omitempty"`
	// S is the above stability threshold.
	S float64 `json:"s,omitempty"`
	// Item is the itemrank item ID; N its sample count (0 = the analyzer's
	// pool size); K adds a top-K membership probability.
	Item string `json:"item,omitempty"`
	N    int    `json:"n,omitempty"`
	K    int    `json:"k,omitempty"`
	// Limit is the enumerate depth.
	Limit int `json:"limit,omitempty"`

	// page and perPage make an enumerate operation one page of
	// GET /v1/{dataset}/rankings (perPage > 0). A request body cannot set
	// them.
	page, perPage int
}

// key renders the operation canonically: every field that can change the
// answer, in a fixed order. It is the operation half of a response-cache
// key (see handleGetQuery).
func (q querySpec) key() string {
	return fmt.Sprintf("%s|w=%v|r=%q|h=%d|s=%v|item=%q|n=%d|k=%d|limit=%d|page=%d/%d",
		q.Op, q.Weights, q.Ranking, q.H, q.S, q.Item, q.N, q.K, q.Limit, q.page, q.perPage)
}

// queryRequest is the POST /v1/query (and POST /v1/jobs) body, and what
// every GET query decodes into. Region, seed and samples select the shared
// analyzer; the URL parameters of the same names map onto them.
type queryRequest struct {
	Dataset string    `json:"dataset"`
	Weights []float64 `json:"weights,omitempty"`
	Theta   float64   `json:"theta,omitempty"`
	Cosine  float64   `json:"cosine,omitempty"`
	Seed    *int64    `json:"seed,omitempty"`
	Samples *int      `json:"samples,omitempty"`
	// Adaptive > 0 enables adaptive verification at that target confidence
	// error (0 < adaptive < 1): verify operations stop sweeping the sample
	// pool early once their confidence half-width reaches the target, and
	// report the rows actually used in sample_count with adaptive set. 0 (the
	// default) keeps exact full-pool sweeps.
	Adaptive float64 `json:"adaptive,omitempty"`

	Queries []querySpec `json:"queries"`
}

// seedAndSamples applies the configured defaults to the request's seed and
// sample count.
func (s *Server) seedAndSamples(req *queryRequest) (int64, int) {
	seed, samples := s.cfg.DefaultSeed, s.cfg.DefaultSampleCount
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Samples != nil {
		samples = *req.Samples
	}
	return seed, samples
}

// routingKey is the cluster placement identity of a request: its
// unversioned analyzer key (generations advance independently per node, and
// a textual difference here only costs locality, never correctness). It
// reads the request unvalidated — an invalid request fails identically on
// every replica, so forwarding it first is harmless.
func (s *Server) routingKey(req *queryRequest) string {
	spec := regionSpec{weights: req.Weights, theta: req.Theta, cosine: req.Cosine}
	seed, samples := s.seedAndSamples(req)
	return analyzerKey{dataset: req.Dataset, region: spec.canonical(), seed: seed, samples: samples, adaptive: req.Adaptive}.at(0, 0)
}

// facetResponse is one boundary facet: the adjacent pair whose exchange the
// facet realizes, plus the constraint normal (positive side = inside).
type facetResponse struct {
	Upper  itemRef   `json:"upper"`
	Lower  itemRef   `json:"lower"`
	Normal []float64 `json:"normal"`
}

// opResult is one operation's outcome; the fields matching the echoed Op are
// populated, or Error alone when that operation failed.
type opResult struct {
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`

	// verify
	Ranking         []itemRef `json:"ranking,omitempty"`
	Stability       *float64  `json:"stability,omitempty"`
	ConfidenceError *float64  `json:"confidence_error,omitempty"`
	Exact           *bool     `json:"exact,omitempty"`
	SampleCount     int       `json:"sample_count,omitempty"`
	// Adaptive reports that this verify stopped early under the request's
	// adaptive target; sample_count is then the rows actually swept.
	Adaptive bool `json:"adaptive,omitempty"`

	// toph / above / enumerate. Rankings is present (possibly empty) for
	// these operations and absent for the others.
	H         int              `json:"h,omitempty"`
	Threshold float64          `json:"threshold,omitempty"`
	Limit     int              `json:"limit,omitempty"`
	Rankings  []stableResponse `json:"rankings,omitzero"`

	// itemrank
	Item           *itemRef       `json:"item,omitempty"`
	Samples        int            `json:"samples,omitempty"`
	Best           int            `json:"best,omitempty"`
	Worst          int            `json:"worst,omitempty"`
	Mode           int            `json:"mode,omitempty"`
	Median         int            `json:"median,omitempty"`
	Counts         map[string]int `json:"counts,omitempty"`
	ProbabilityTop map[string]any `json:"probability_top,omitempty"`

	// boundary
	Facets []facetResponse `json:"facets,omitempty"`
}

type queryResponse struct {
	Dataset string     `json:"dataset"`
	Results []opResult `json:"results"`
}

// queryLimits separates the synchronous caps from the async ones: the jobs
// path exists precisely to run enumerations deeper than a held-open
// connection should serve.
type queryLimits struct {
	// maxDepth caps toph h and enumerate limit.
	maxDepth int
	// openEnumerate allows enumerate without a limit (capped to maxDepth).
	openEnumerate bool
}

func (s *Server) syncLimits() queryLimits {
	return queryLimits{maxDepth: s.cfg.MaxEnumerate}
}

func (s *Server) jobLimits() queryLimits {
	return queryLimits{maxDepth: s.cfg.MaxStreamRows, openEnumerate: true}
}

// streamLimits lets an open stream enumeration run one row past
// MaxStreamRows, so the summary line can tell exhaustion exactly at the cap
// from truncation by it.
func (s *Server) streamLimits() queryLimits {
	return queryLimits{maxDepth: s.cfg.MaxStreamRows + 1, openEnumerate: true}
}

// compiledQuery is a validated request, ready to execute (possibly later,
// on a job worker). The dataset and item IDs are re-resolved at execution
// time so a dataset replaced in between fails loudly instead of answering
// with stale indices.
type compiledQuery struct {
	dataset  string
	spec     regionSpec
	seed     int64
	samples  int
	adaptive float64
	specs    []querySpec
	limits   queryLimits
	// req is the original request body, retained so persisted jobs can be
	// recompiled after a restart.
	req *queryRequest
}

// maxQueryBody bounds a query request body; queries are parameter lists,
// not dataset uploads.
const maxQueryBody = 1 << 20

// readQueryRequest reads and decodes a /v1/query-shaped body with the
// standard size cap and strictness, returning the raw bytes alongside so a
// clustered node can replay the body when forwarding to the key's owner.
func readQueryRequest(w http.ResponseWriter, r *http.Request) ([]byte, *queryRequest, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, nil, statusError{code: http.StatusRequestEntityTooLarge, msg: "request body exceeds 1 MiB"}
		}
		return nil, nil, errBadRequest("reading query request: %v", err)
	}
	var req queryRequest
	trailing, err := decodeBody(raw, &req)
	if err != nil {
		return nil, nil, errBadRequest("decoding query request: %v", err)
	}
	if trailing {
		return nil, nil, errBadRequest("query request has trailing data")
	}
	return raw, &req, nil
}

// decodeBody decodes a request body holding one JSON value into v,
// rejecting unknown fields. trailing reports anything but white space after
// the value — a stray closing bracket too, which json.Decoder.More does not
// count.
func decodeBody(data []byte, v any) (trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false, err
	}
	return dec.Decode(&struct{}{}) != io.EOF, nil
}

// compileQuery validates the request against the current dataset and caps
// and resolves every operation, so a malformed entry rejects the request
// before any work (execution resolves them again against the dataset it
// runs on). Job submission and job restore use it, since they must reject at
// submit time. A list longer than MaxBatchOps is answered 413: the request
// is well-formed, just bigger than this server accepts.
func (s *Server) compileQuery(req *queryRequest, limits queryLimits) (*compiledQuery, error) {
	cq, ds, err := s.compileRequest(req, limits)
	if err != nil {
		return nil, err
	}
	if _, err := cq.buildQueries(s, ds); err != nil {
		return nil, err
	}
	return cq, nil
}

// compileRequest is compileQuery without resolving the operations, which
// costs a ranking sort per verify. POST /v1/query and the GET and stream
// surfaces resolve them once, after obtaining the analyzer — a GET only on a
// response-cache miss.
func (s *Server) compileRequest(req *queryRequest, limits queryLimits) (*compiledQuery, *stablerank.Dataset, error) {
	ds, _, _, ok := s.registry.Get(req.Dataset)
	if !ok {
		return nil, nil, errNotFound("unknown dataset %q", req.Dataset)
	}
	spec := regionSpec{weights: req.Weights, theta: req.Theta, cosine: req.Cosine}
	if err := spec.validate(ds.D(), req.Theta != 0, req.Cosine != 0); err != nil {
		return nil, nil, err
	}
	seed, samples := s.seedAndSamples(req)
	if samples < 1 || samples > s.cfg.MaxSampleCount {
		return nil, nil, errBadRequest("samples %d out of range [1, %d]", samples, s.cfg.MaxSampleCount)
	}
	if req.Adaptive < 0 || req.Adaptive >= 1 {
		return nil, nil, errBadRequest("adaptive %v out of [0, 1)", req.Adaptive)
	}
	if len(req.Queries) == 0 {
		return nil, nil, errBadRequest("query request requires at least one operation")
	}
	if len(req.Queries) > s.cfg.MaxBatchOps {
		return nil, nil, statusError{
			code: http.StatusRequestEntityTooLarge,
			msg:  fmt.Sprintf("query list has %d operations, limit %d", len(req.Queries), s.cfg.MaxBatchOps),
		}
	}
	return &compiledQuery{
		dataset:  req.Dataset,
		spec:     spec,
		seed:     seed,
		samples:  samples,
		adaptive: req.Adaptive,
		specs:    req.Queries,
		limits:   limits,
		req:      req,
	}, ds, nil
}

// buildQueries translates the operation specs into library queries against
// ds, validating every entry.
func (cq *compiledQuery) buildQueries(s *Server, ds *stablerank.Dataset) ([]stablerank.Query, error) {
	queries := make([]stablerank.Query, len(cq.specs))
	for i, spec := range cq.specs {
		switch spec.Op {
		case "verify", "boundary":
			rk, err := rankingOfSpec(spec, ds)
			if err != nil {
				return nil, errBadRequest("queries[%d]: %v", i, err)
			}
			if spec.Op == "verify" {
				queries[i] = stablerank.VerifyQuery{Ranking: rk}
			} else {
				queries[i] = stablerank.BoundaryQuery{Ranking: rk}
			}
		case "toph":
			if spec.H < 1 || spec.H > cq.limits.maxDepth {
				return nil, errBadRequest("queries[%d]: h must be in [1, %d]", i, cq.limits.maxDepth)
			}
			queries[i] = stablerank.TopHQuery{H: spec.H}
		case "above":
			if !(spec.S > 0 && spec.S <= 1) {
				return nil, errBadRequest("queries[%d]: s must be in (0, 1]", i)
			}
			queries[i] = stablerank.AboveQuery{Threshold: spec.S}
		case "itemrank":
			if spec.Item == "" {
				return nil, errBadRequest("queries[%d]: itemrank requires item (an item id)", i)
			}
			idx, ok := itemIndex(ds, spec.Item)
			if !ok {
				return nil, errBadRequest("queries[%d]: item %q not in dataset %q", i, spec.Item, cq.dataset)
			}
			if spec.N < 0 || spec.N > s.cfg.MaxSampleCount {
				return nil, errBadRequest("queries[%d]: n must be in [0, %d]", i, s.cfg.MaxSampleCount)
			}
			if spec.K < 0 {
				return nil, errBadRequest("queries[%d]: k must be >= 0", i)
			}
			queries[i] = stablerank.ItemRankQuery{Item: idx, Samples: spec.N}
		case "enumerate":
			limit := spec.Limit
			if limit <= 0 {
				if !cq.limits.openEnumerate {
					return nil, errBadRequest("queries[%d]: enumerate limit must be in [1, %d] (use /v1/jobs or /v1/query/stream for open enumeration)", i, cq.limits.maxDepth)
				}
				limit = cq.limits.maxDepth
			}
			if limit > cq.limits.maxDepth {
				return nil, errBadRequest("queries[%d]: enumerate limit must be in [1, %d]", i, cq.limits.maxDepth)
			}
			if spec.perPage > 0 {
				// A page enumerates one past its end so has_more is exact
				// even when the enumeration is exhausted right behind it.
				limit++
			}
			queries[i] = stablerank.EnumerateQuery{Limit: limit}
		default:
			return nil, errBadRequest("queries[%d]: unknown op %q", i, spec.Op)
		}
	}
	return queries, nil
}

// rankingOfSpec resolves a verify/boundary target: an explicit ranking, or
// the one induced by weights.
func rankingOfSpec(spec querySpec, ds *stablerank.Dataset) (stablerank.Ranking, error) {
	switch {
	case spec.Ranking != "" && len(spec.Weights) > 0:
		return stablerank.Ranking{}, errors.New("use weights or ranking, not both")
	case spec.Ranking != "":
		return parseRanking(spec.Ranking, ds)
	case len(spec.Weights) > 0:
		if len(spec.Weights) != ds.D() {
			return stablerank.Ranking{}, fmt.Errorf("weights have %d components, dataset has %d attributes", len(spec.Weights), ds.D())
		}
		return stablerank.RankingOf(ds, spec.Weights), nil
	default:
		return stablerank.Ranking{}, errors.New("requires weights or ranking")
	}
}

func itemIndex(ds *stablerank.Dataset, id string) (int, bool) {
	for i := 0; i < ds.N(); i++ {
		if ds.Item(i).ID == id {
			return i, true
		}
	}
	return -1, false
}

// analyzerFor re-resolves a compiled query's dataset and obtains the shared
// analyzer for its key over it, returning alongside the key rendered at the
// dataset's version (the response cache's key prefix).
func (s *Server) analyzerFor(cq *compiledQuery) (*stablerank.Dataset, *stablerank.Analyzer, string, error) {
	ds, gen, ver, ok := s.registry.Get(cq.dataset)
	if !ok {
		return nil, nil, "", errNotFound("unknown dataset %q", cq.dataset)
	}
	key := analyzerKey{dataset: cq.dataset, region: cq.spec.canonical(), seed: cq.seed, samples: cq.samples, adaptive: cq.adaptive}
	a, err := s.analyzers.get(key, ds, gen, ver, cq.spec)
	if err != nil {
		if _, isStatus := err.(statusError); !isStatus {
			err = errBadRequest("building analyzer: %v", err)
		}
		return nil, nil, "", err
	}
	return ds, a, key.at(gen, ver), nil
}

// answer resolves the operations against ds and answers them all with one
// Analyzer.Do call, returning the resolved queries beside the results.
func (s *Server) answer(ctx context.Context, cq *compiledQuery, ds *stablerank.Dataset, a *stablerank.Analyzer) ([]stablerank.Query, []stablerank.Result, error) {
	queries, err := cq.buildQueries(s, ds)
	if err != nil {
		return nil, nil, err
	}
	results, err := a.Do(ctx, queries...)
	return queries, results, err
}

// execQuery runs a compiled query now, under ctx, and renders every
// operation's result. It is shared by POST /v1/query and the job workers.
func (s *Server) execQuery(ctx context.Context, cq *compiledQuery) (*queryResponse, error) {
	ds, a, _, err := s.analyzerFor(cq)
	if err != nil {
		return nil, err
	}
	queries, results, err := s.answer(ctx, cq, ds, a)
	if err != nil {
		return nil, err
	}
	resp := &queryResponse{Dataset: cq.dataset, Results: make([]opResult, len(results))}
	for i, res := range results {
		resp.Results[i] = s.renderOpResult(ds, cq.specs[i], queries[i], res)
	}
	return resp, nil
}

// renderOpResult maps one library Result onto the wire shape.
func (s *Server) renderOpResult(ds *stablerank.Dataset, spec querySpec, q stablerank.Query, res stablerank.Result) opResult {
	out := opResult{Op: spec.Op}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	switch spec.Op {
	case "verify":
		v := res.Verification
		out.Ranking = s.itemRefs(ds, q.(stablerank.VerifyQuery).Ranking.Order)
		out.Stability = &v.Stability
		out.ConfidenceError = &v.ConfidenceError
		out.Exact = &v.Exact
		out.SampleCount = v.SampleCount
		out.Adaptive = v.Adaptive
	case "toph":
		out.H = spec.H
		out.Rankings = s.stableResponses(ds, res.Stables, 0)
	case "above":
		out.Threshold = spec.S
		out.Rankings = s.stableResponses(ds, res.Stables, 0)
	case "enumerate":
		out.Limit = q.(stablerank.EnumerateQuery).Limit
		out.Rankings = s.stableResponses(ds, res.Stables, 0)
	case "itemrank":
		dist := res.RankDistribution
		idx := q.(stablerank.ItemRankQuery).Item
		counts := make(map[string]int, len(dist.Counts))
		for rnk, c := range dist.Counts { //srlint:ordered map-to-map rekey; json.Marshal renders object keys sorted
			counts[strconv.Itoa(rnk)] = c
		}
		out.Item = &itemRef{Index: idx, ID: spec.Item}
		out.Samples = dist.Samples
		out.Best = dist.Best
		out.Worst = dist.Worst
		out.Mode = dist.Mode()
		out.Median = dist.Quantile(0.5)
		out.Counts = counts
		if spec.K > 0 {
			out.ProbabilityTop = map[string]any{
				"k":           spec.K,
				"probability": dist.ProbabilityTopK(spec.K),
			}
		}
	case "boundary":
		facets := make([]facetResponse, len(res.Facets))
		for i, f := range res.Facets {
			facets[i] = facetResponse{
				Upper:  itemRef{Index: f.Upper, ID: ds.Item(f.Upper).ID},
				Lower:  itemRef{Index: f.Lower, ID: ds.Item(f.Lower).ID},
				Normal: f.Halfspace.Normal,
			}
		}
		out.Facets = facets
	}
	return out
}

// handleQuery is POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	raw, req, err := readQueryRequest(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.forward(w, r, s.routingKey(req), raw) {
		return
	}
	cq, _, err := s.compileRequest(req, s.syncLimits())
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.execQuery(r.Context(), cq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
