package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stablerank"
)

// JSON response shapes. Item references are rendered as IDs (with their
// dataset index alongside) so responses stay meaningful when clients never
// saw the CSV row order.

type itemRef struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
}

type stableResponse struct {
	Rank            int       `json:"rank"`
	Stability       float64   `json:"stability"`
	Exact           bool      `json:"exact"`
	Items           []itemRef `json:"items"`
	Weights         []float64 `json:"weights,omitempty"`
	ConfidenceError float64   `json:"confidence_error,omitempty"`
}

// getResponse is a GET /v1/{dataset}/{op} answer: the operation's result,
// as in a POST /v1/query results list, plus the dataset name.
type getResponse struct {
	Dataset string `json:"dataset"`
	opResult
}

// pageResponse is a GET /v1/{dataset}/rankings answer: one page of an
// enumerate operation.
type pageResponse struct {
	Dataset string           `json:"dataset"`
	Page    int              `json:"page"`
	PerPage int              `json:"per_page"`
	HasMore bool             `json:"has_more"`
	Results []stableResponse `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// routes wires every endpoint into a fresh mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("POST /datasets/{name}", s.handleAddDataset)
	mux.HandleFunc("PATCH /v1/datasets/{name}", s.handlePatchDataset)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	// GET /v1/jobs/{id} and GET /v1/{dataset}/{op} cannot coexist as
	// ServeMux patterns (neither is more specific), so all two-segment /v1
	// GETs share one dispatcher; "jobs" is therefore a reserved dataset name.
	mux.HandleFunc("GET /v1/{dataset}/{op}", s.handleV1Get)
	// The chunk-fill protocol (ping + fill): every node serves fills, so
	// replicas can be configured as each other's fill workers.
	mux.Handle("/cluster/v1/", s.fillWorker.Handler())
	return mux
}

// handleV1Get dispatches GET /v1/{dataset}/{op} between the job-status
// endpoint (dataset == "jobs"), the drift feed, and the query operations.
func (s *Server) handleV1Get(w http.ResponseWriter, r *http.Request) {
	name, op := r.PathValue("dataset"), r.PathValue("op")
	switch {
	case name == "jobs":
		s.handleGetJob(w, r, op)
	case op == "drift":
		s.handleDrift(w, r, name)
	default:
		s.handleGetQuery(w, r, name, op)
	}
}

// handleGetQuery answers one GET query operation through the query
// pipeline. The analyzer is obtained before the response cache is read, so
// concurrent identical GETs still coalesce onto one analyzer; the cache key
// is the analyzer key at the dataset's version (see analyzerKey.at) plus the
// canonical operation, so a hit costs the URL parse and that lookup — no
// ranking is computed and nothing is encoded.
func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request, name, op string) {
	// An already-expired request deadline surfaces as a 504 before any work.
	if err := r.Context().Err(); err != nil {
		writeError(w, err)
		return
	}
	req, err := s.getRequest(r.URL.Query(), name, op)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.forward(w, r, s.routingKey(req), nil) {
		return
	}
	cq, _, err := s.compileRequest(req, s.syncLimits())
	if err != nil {
		writeError(w, err)
		return
	}
	ds, a, vkey, err := s.analyzerFor(cq)
	if err != nil {
		writeError(w, err)
		return
	}
	spec := cq.specs[0]
	key := vkey + "|" + spec.key()
	if body, ok := s.cache.get(key); ok {
		serveBody(w, body, "hit")
		return
	}
	if spec.Op == "itemrank" {
		// The URL names the item, so a missing one is a missing resource.
		if _, ok := itemIndex(ds, spec.Item); !ok {
			writeError(w, errNotFound("item %q not in dataset %q", spec.Item, name))
			return
		}
	}
	queries, results, err := s.answer(r.Context(), cq, ds, a)
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		writeError(w, err)
		return
	}
	var resp any
	if spec.perPage > 0 {
		resp = s.renderPage(ds, name, spec, results[0].Stables)
	} else {
		resp = getResponse{Dataset: name, opResult: s.renderOpResult(ds, spec, queries[0], results[0])}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, err)
		return
	}
	s.cache.put(key, body)
	serveBody(w, body, "miss")
}

func serveBody(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

// getRequest decodes GET /v1/{dataset}/{op} into a one-operation query
// request. ?weights= is both the region's reference vector and, without
// ?ranking=, the verify target; toph defaults to h=10 and itemrank to
// n=10000; a rankings page is an enumerate operation through the end of
// the page.
func (s *Server) getRequest(q url.Values, name, op string) (*queryRequest, error) {
	req, err := s.urlRequest(q, name)
	if err != nil {
		return nil, err
	}
	spec := querySpec{Op: op}
	switch op {
	case "verify":
		switch {
		case q.Get("ranking") != "":
			// A published ranking to verify, as comma-separated item IDs
			// (the consumer form of Problem 1: the ranking need not be
			// achievable in the region at all).
			spec.Ranking = q.Get("ranking")
		case req.Weights != nil:
			spec.Weights = req.Weights
		default:
			return nil, errBadRequest("verify requires weights or ranking")
		}
	case "toph", "above":
		if spec, err = enumOp(q, op, s.cfg.MaxEnumerate); err != nil {
			return nil, err
		}
	case "itemrank":
		if spec.Item = q.Get("item"); spec.Item == "" {
			return nil, errBadRequest("itemrank requires item (an item id)")
		}
		n, err := intParam(q.Get("n"), 10_000)
		if err != nil || n < 1 || n > int64(s.cfg.MaxSampleCount) {
			return nil, errBadRequest("n must be in [1, %d]", s.cfg.MaxSampleCount)
		}
		k, err := intParam(q.Get("k"), 0)
		if err != nil || k < 0 {
			return nil, errBadRequest("k must be >= 0")
		}
		spec.N, spec.K = int(n), int(k)
	case "rankings":
		page, err := intParam(q.Get("page"), 0)
		if err != nil || page < 0 {
			return nil, errBadRequest("page must be >= 0")
		}
		perPage, err := intParam(q.Get("per_page"), 10)
		if err != nil || perPage < 1 || perPage > int64(s.cfg.MaxEnumerate) {
			return nil, errBadRequest("per_page must be in [1, %d]", s.cfg.MaxEnumerate)
		}
		// Bound page before multiplying so a huge page value cannot overflow
		// int64 and slip past the enumeration cap.
		if page > int64(s.cfg.MaxEnumerate) || (page+1)*perPage > int64(s.cfg.MaxEnumerate) {
			return nil, errBadRequest("page*per_page exceeds the enumeration cap %d", s.cfg.MaxEnumerate)
		}
		spec = querySpec{Op: "enumerate", Limit: int((page + 1) * perPage), page: int(page), perPage: int(perPage)}
	default:
		return nil, errNotFound("unknown endpoint /v1/%s/%s", name, op)
	}
	req.Queries = []querySpec{spec}
	return req, nil
}

// urlRequest decodes the dataset and the region, seed and samples URL
// parameters shared by every GET query into a request without operations.
// An explicit ?theta=0 or ?cosine=0 is rejected here: unlike a JSON body,
// a URL can tell a present zero from an absent parameter.
func (s *Server) urlRequest(q url.Values, name string) (*queryRequest, error) {
	ds, _, _, ok := s.registry.Get(name)
	if !ok {
		return nil, errNotFound("unknown dataset %q", name)
	}
	req := &queryRequest{Dataset: name}
	var err error
	if wstr := q.Get("weights"); wstr != "" {
		if req.Weights, err = parseWeights(wstr, ds.D()); err != nil {
			return nil, err
		}
	}
	if req.Theta, err = floatParam(q.Get("theta"), 0); err != nil {
		return nil, errBadRequest("bad theta: %v", err)
	}
	if req.Cosine, err = floatParam(q.Get("cosine"), 0); err != nil {
		return nil, errBadRequest("bad cosine: %v", err)
	}
	spec := regionSpec{weights: req.Weights, theta: req.Theta, cosine: req.Cosine}
	if err := spec.validate(ds.D(), q.Get("theta") != "", q.Get("cosine") != ""); err != nil {
		return nil, err
	}
	seed, err := intParam(q.Get("seed"), s.cfg.DefaultSeed)
	if err != nil {
		return nil, errBadRequest("bad seed: %v", err)
	}
	samples, err := intParam(q.Get("samples"), int64(s.cfg.DefaultSampleCount))
	if err != nil {
		return nil, errBadRequest("bad samples: %v", err)
	}
	n := int(samples)
	req.Seed, req.Samples = &seed, &n
	return req, nil
}

// enumOp decodes an enumeration-shaped operation from a GET or stream URL:
// toph with ?h= (default 10), above with ?s=, or enumerate with ?limit=
// (default 0, open); h and limit are capped at maxDepth.
func enumOp(q url.Values, op string, maxDepth int) (querySpec, error) {
	switch op {
	case "toph":
		h, err := intParam(q.Get("h"), 10)
		if err != nil || h < 1 || h > int64(maxDepth) {
			return querySpec{}, errBadRequest("h must be in [1, %d]", maxDepth)
		}
		return querySpec{Op: op, H: int(h)}, nil
	case "above":
		threshold, err := floatParam(q.Get("s"), -1)
		if err != nil || !(threshold > 0 && threshold <= 1) {
			return querySpec{}, errBadRequest("s must be in (0, 1]")
		}
		return querySpec{Op: op, S: threshold}, nil
	case "enumerate":
		limit, err := intParam(q.Get("limit"), 0)
		if err != nil || limit < 0 || limit > int64(maxDepth) {
			return querySpec{}, errBadRequest("limit must be in [0, %d]", maxDepth)
		}
		return querySpec{Op: op, Limit: int(limit)}, nil
	}
	return querySpec{}, errBadRequest("op must be enumerate, toph or above")
}

// renderPage slices one page out of an enumeration that runs one past the
// page's end (or to exhaustion); has_more is whether that extra ranking
// exists.
func (s *Server) renderPage(ds *stablerank.Dataset, name string, spec querySpec, stables []stablerank.Stable) pageResponse {
	start := min(spec.page*spec.perPage, len(stables))
	end := min(start+spec.perPage, len(stables))
	return pageResponse{
		Dataset: name, Page: spec.page, PerPage: spec.perPage,
		HasMore: len(stables) > start+spec.perPage,
		Results: s.stableResponses(ds, stables[start:end], start),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":   "ok",
		"datasets": s.registry.Len(),
		"uptime":   s.now().Sub(s.start).Round(time.Millisecond).String(),
	}
	// scope=local answers for this node only; it is also what peer probes
	// request, so probes never fan out transitively.
	if s.cluster != nil && r.URL.Query().Get("scope") != "local" {
		peers := s.probePeers(r.Context())
		for _, p := range peers {
			if p.Status == "unreachable" {
				resp["status"] = "degraded"
				break
			}
		}
		resp["cluster"] = map[string]any{"self": s.cluster.self, "peers": peers}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.stats()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	analyzers, builds, dedupHits, evictions := s.analyzers.snapshot()
	var poolBytes int64
	for _, a := range analyzers {
		poolBytes += a.PoolBytes
	}
	jobs := s.jobs.counts()
	resp := map[string]any{
		"cache": map[string]any{
			"hits":     hits,
			"misses":   misses,
			"size":     size,
			"capacity": s.cfg.CacheSize,
			"hit_rate": hitRate,
		},
		"analyzers": map[string]any{
			"resident":         analyzers,
			"capacity":         s.cfg.MaxAnalyzers,
			"builds":           builds,
			"dedup_hits":       dedupHits,
			"evictions":        evictions,
			"pool_bytes_total": poolBytes,
		},
		"jobs": map[string]any{
			"workers":        s.cfg.JobWorkers,
			"queue_capacity": s.cfg.JobQueueSize,
			"queued":         jobs.queued,
			"active":         jobs.running,
			"resident":       jobs.resident,
			"completed":      jobs.completed,
			"failed":         jobs.failed,
			"cancelled":      jobs.stopped,
		},
		"store":             s.storeStats(),
		"deltas":            s.deltaStats(),
		"streamed_rows":     s.streamedRows.Load(),
		"inflight_requests": s.inflightRequests.Load(),
		"workers":           s.workerCount(),
		"datasets":          s.registry.Names(),
	}
	// The chunk-fill counters: every node serves fills, coordinators also
	// delegate their own builds.
	fill := map[string]any{"worker": s.fillWorker.Stats()}
	if s.coordinator != nil {
		fill["coordinator"] = s.coordinator.Stats()
	}
	resp["fill"] = fill
	// The cluster-wide section fans out to every peer's local stats.
	// ?scope=local suppresses it — which is exactly how the fan-out itself
	// asks, so two clustered nodes never recurse into each other.
	if s.cluster != nil && r.URL.Query().Get("scope") != "local" {
		resp["cluster"] = s.clusterStats(r.Context())
	}
	writeJSON(w, http.StatusOK, resp)
}

// workerCount resolves the configured per-analyzer worker count for display:
// 0 means "all cores", reported as the actual GOMAXPROCS value.
func (s *Server) workerCount() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	type dsInfo struct {
		Name string `json:"name"`
		N    int    `json:"n"`
		D    int    `json:"d"`
	}
	names := s.registry.Names()
	infos := make([]dsInfo, 0, len(names))
	for _, n := range names {
		if ds, _, _, ok := s.registry.Get(n); ok {
			infos = append(infos, dsInfo{Name: n, N: ds.N(), D: ds.D()})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (s *Server) handleAddDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	hasHeader := true
	if h := r.URL.Query().Get("header"); h != "" {
		v, err := strconv.ParseBool(h)
		if err != nil {
			writeError(w, errBadRequest("bad header: %v", err))
			return
		}
		hasHeader = v
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if err := s.registry.AddCSV(name, body, hasHeader); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, statusError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("dataset exceeds the %d-byte upload limit", s.cfg.MaxUploadBytes),
			})
			return
		}
		writeError(w, errBadRequest("loading dataset: %v", err))
		return
	}
	ds, _, _, _ := s.registry.Get(name)
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "n": ds.N(), "d": ds.D()})
}

// Helpers.

func (s *Server) itemRefs(ds *stablerank.Dataset, order []int) []itemRef {
	limit := min(len(order), s.cfg.MaxRankingItems)
	refs := make([]itemRef, limit)
	for i := 0; i < limit; i++ {
		refs[i] = itemRef{Index: order[i], ID: ds.Item(order[i]).ID}
	}
	return refs
}

func (s *Server) stableResponses(ds *stablerank.Dataset, stables []stablerank.Stable, rankOffset int) []stableResponse {
	out := make([]stableResponse, len(stables))
	for i, st := range stables {
		out[i] = stableResponse{
			Rank:            rankOffset + i + 1,
			Stability:       st.Stability,
			Exact:           st.Exact,
			Items:           s.itemRefs(ds, st.Ranking.Order),
			Weights:         st.Weights,
			ConfidenceError: st.ConfidenceError,
		}
	}
	return out
}

// parseRanking parses comma-separated item IDs into a full ranking of ds.
func parseRanking(s string, ds *stablerank.Dataset) (stablerank.Ranking, error) {
	ids := strings.Split(s, ",")
	if len(ids) != ds.N() {
		return stablerank.Ranking{}, errBadRequest("ranking has %d items, dataset has %d", len(ids), ds.N())
	}
	index := make(map[string]int, ds.N())
	for i := 0; i < ds.N(); i++ {
		index[ds.Item(i).ID] = i
	}
	order := make([]int, len(ids))
	seen := make(map[int]bool, len(ids))
	for i, id := range ids {
		id = strings.TrimSpace(id)
		idx, ok := index[id]
		if !ok {
			return stablerank.Ranking{}, errBadRequest("ranking item %q not in dataset", id)
		}
		if seen[idx] {
			return stablerank.Ranking{}, errBadRequest("ranking repeats item %q", id)
		}
		seen[idx] = true
		order[i] = idx
	}
	return stablerank.Ranking{Order: order}, nil
}

func parseWeights(s string, d int) ([]float64, error) {
	w, err := stablerank.ParseWeights(s, d)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	return w, nil
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

func intParam(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
