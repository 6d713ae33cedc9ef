package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stablerank"
	"stablerank/internal/cluster"
)

// Cluster glue: how one stablerankd process becomes a replica in a sharded
// cluster.
//
//   - Placement: every node builds the same consistent-hash ring over
//     Config.Peers (cluster.Ring sorts and dedups, so peer-list order never
//     matters) and routes each analyzer key to its owner. Ownership is a
//     LOCALITY hint only — the pool draw is deterministic in (region, seed,
//     n), so any node answers any key bit-identically; an unreachable owner
//     degrades to serving locally, never to an error.
//   - Routing: POST /v1/query and the GET /v1/{dataset}/{op} endpoints are
//     forwarded to the key's owner unless this node IS the owner or the
//     request already carries the forwarded marker (one hop, never loops).
//     Streams and jobs stay node-local by design: they hold per-node state.
//   - Remote fill: with Config.FillWorkers set, analyzers assemble their
//     Monte-Carlo pools through a cluster.Coordinator that farms pool chunks
//     out to the workers and splices the streams back together; every node
//     also mounts the fill-worker endpoints, so peers can serve as each
//     other's fill workers.
//   - Observability: /healthz gains per-peer reachability, /statsz a cluster
//     section with per-peer totals and a cluster-wide aggregate
//     (?scope=local suppresses the fan-out, which is also how the fan-out
//     itself asks, so peers never recurse).

// forwardedHeader marks a request that already crossed one replica hop; the
// receiving node must serve it locally no matter what its ring says.
const forwardedHeader = "X-Stablerank-Forwarded"

// servedByHeader names the node that actually computed a routed response.
const servedByHeader = "X-Stablerank-Served-By"

// peerProbeTimeout bounds one /healthz or /statsz probe of one peer.
const peerProbeTimeout = 2 * time.Second

// clusterState is the routing half of a clustered server (nil when
// Config.Peers is empty).
type clusterState struct {
	self   string
	ring   *cluster.Ring
	client *http.Client

	forwards  atomic.Int64 // requests proxied to their owner
	received  atomic.Int64 // forwarded requests served on this node
	fallbacks atomic.Int64 // owner unreachable, served locally instead
}

// newClusterState validates the peer configuration. SelfURL must appear in
// the peer list — a node that cannot find itself would forward every key and
// count every response as somebody else's.
func newClusterState(peers []string, self string, timeout time.Duration) (*clusterState, error) {
	normalized := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			normalized = append(normalized, p)
		}
	}
	self = strings.TrimRight(strings.TrimSpace(self), "/")
	if self == "" {
		return nil, fmt.Errorf("server: Peers configured without SelfURL")
	}
	ring := cluster.NewRing(normalized, 0)
	found := false
	for _, n := range ring.Nodes() {
		if n == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("server: SelfURL %q not in Peers %v", self, ring.Nodes())
	}
	return &clusterState{
		self:   self,
		ring:   ring,
		client: &http.Client{Timeout: timeout},
	}, nil
}

// owner resolves where a routed request should run: ("", false) means here.
func (cs *clusterState) owner(r *http.Request, key string) (string, bool) {
	if r.Header.Get(forwardedHeader) != "" {
		cs.received.Add(1)
		return "", false
	}
	o := cs.ring.Owner(key)
	if o == "" || o == cs.self {
		return "", false
	}
	return o, true
}

// forward hands a routed request to the owner of key when this node is
// clustered and not the owner, reporting whether the owner answered. body
// replaces the request body when non-nil (a POST or PATCH body has already
// been consumed). A failed hop falls through to local serving, which the
// caller then does.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.cluster != nil {
		if owner, remote := s.cluster.owner(r, key); remote && s.proxy(w, r, owner, body) {
			return true
		}
	}
	s.markServedLocally(w)
	return false
}

// proxy forwards the request to its owner and relays the response verbatim
// (plus the origin's Served-By header). body replaces the request body when
// non-nil (POST and PATCH bodies are already consumed). A false return means
// the owner was unreachable and the caller must serve the request locally —
// the determinism contract makes that substitution invisible to the client.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	cs := s.cluster
	target := owner + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, reader)
	if err != nil {
		cs.fallbacks.Add(1)
		return false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(forwardedHeader, cs.self)
	resp, err := cs.client.Do(req)
	if err != nil {
		cs.fallbacks.Add(1)
		s.logf("stablerankd: forwarding %s %s to %s failed, serving locally: %v", r.Method, r.URL.Path, owner, err)
		return false
	}
	defer resp.Body.Close()
	cs.forwards.Add(1)
	if sb := resp.Header.Get(servedByHeader); sb != "" {
		w.Header().Set(servedByHeader, sb)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "" {
		w.Header().Set("X-Cache", xc)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// markServedLocally stamps the Served-By header on clustered nodes so
// clients (and the cluster tests) can see which replica computed a routed
// response.
func (s *Server) markServedLocally(w http.ResponseWriter) {
	if s.cluster != nil {
		w.Header().Set(servedByHeader, s.cluster.self)
	}
}

// ---------------------------------------------------------------------------
// Remote pool fill.

// coordinatorFiller adapts the cluster coordinator to stablerank.PoolFiller
// for one analyzer's (region, seed) identity.
type coordinatorFiller struct {
	coord *cluster.Coordinator
	spec  cluster.RegionSpec
	seed  int64
}

func (f *coordinatorFiller) FillPool(ctx context.Context, total, d int) ([]float64, error) {
	pool, err := f.coord.FillPool(ctx, f.spec, f.seed, total)
	return pool.Data(), err
}

// poolFillerFor binds the coordinator to one analyzer key. The wire spec
// reconstructs the region exactly as the analyzer options do (same
// constructors, same float64 values), which is what makes remote chunks
// bit-identical to the local draw.
func poolFillerFor(coord *cluster.Coordinator, ds *stablerank.Dataset, key analyzerKey, spec regionSpec) stablerank.PoolFiller {
	return &coordinatorFiller{
		coord: coord,
		spec: cluster.RegionSpec{
			D:       ds.D(),
			Weights: append([]float64(nil), spec.weights...),
			Theta:   spec.theta,
			Cosine:  spec.cosine,
		},
		seed: key.seed,
	}
}

// ---------------------------------------------------------------------------
// Cluster observability.

// peerHealth is one peer's row in /healthz.
type peerHealth struct {
	URL    string `json:"url"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// probePeers checks every peer's /healthz in parallel (self reports "self"
// without a round trip).
func (s *Server) probePeers(ctx context.Context) []peerHealth {
	cs := s.cluster
	nodes := cs.ring.Nodes()
	out := make([]peerHealth, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		out[i] = peerHealth{URL: n, Status: "ok"}
		if n == cs.self {
			out[i].Status = "self"
			continue
		}
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, peerProbeTimeout)
			defer cancel()
			// scope=local keeps the peer from probing its own peers in
			// turn — probes would otherwise bounce between replicas until
			// every hop's deadline expired.
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, n+"/healthz?scope=local", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = cs.client.Do(req); err == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
			}
			if err != nil {
				out[i] = peerHealth{URL: n, Status: "unreachable", Error: err.Error()}
			}
		}(i, n)
	}
	wg.Wait()
	return out
}

// peerStatsRow is one peer's contribution to the /statsz cluster section:
// the slice of its local /statsz the aggregate is built from.
type peerStatsRow struct {
	URL              string `json:"url"`
	Reachable        bool   `json:"reachable"`
	Error            string `json:"error,omitempty"`
	Datasets         int    `json:"datasets,omitempty"`
	Analyzers        int    `json:"analyzers,omitempty"`
	PoolBytes        int64  `json:"pool_bytes,omitempty"`
	CacheHits        int64  `json:"cache_hits,omitempty"`
	CacheMisses      int64  `json:"cache_misses,omitempty"`
	StreamedRows     int64  `json:"streamed_rows,omitempty"`
	InflightRequests int64  `json:"inflight_requests,omitempty"`
}

// localStatsSummary is the node-local slice of /statsz the cluster section
// aggregates; identical shape whether read locally or fetched from a peer.
func (s *Server) localStatsSummary() peerStatsRow {
	hits, misses, _ := s.cache.stats()
	analyzers, _, _, _, _ := s.analyzers.snapshot()
	var poolBytes int64
	for _, a := range analyzers {
		poolBytes += a.PoolBytes
	}
	return peerStatsRow{
		Reachable:        true,
		Datasets:         s.registry.Len(),
		Analyzers:        len(analyzers),
		PoolBytes:        poolBytes,
		CacheHits:        hits,
		CacheMisses:      misses,
		StreamedRows:     s.streamedRows.Load(),
		InflightRequests: s.inflightRequests.Load(),
	}
}

// clusterStats builds the /statsz "cluster" section: routing counters,
// per-peer local summaries (fetched in parallel with ?scope=local so peers
// never fan out in turn), and the cluster-wide aggregate.
func (s *Server) clusterStats(ctx context.Context) map[string]any {
	cs := s.cluster
	nodes := cs.ring.Nodes()
	rows := make([]peerStatsRow, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n == cs.self {
			rows[i] = s.localStatsSummary()
			rows[i].URL = n
			continue
		}
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			rows[i] = fetchPeerStats(ctx, cs.client, n)
		}(i, n)
	}
	wg.Wait()

	agg := map[string]int64{}
	reachable := 0
	for _, row := range rows {
		if !row.Reachable {
			continue
		}
		reachable++
		agg["datasets"] += int64(row.Datasets)
		agg["analyzers"] += int64(row.Analyzers)
		agg["pool_bytes"] += row.PoolBytes
		agg["cache_hits"] += row.CacheHits
		agg["cache_misses"] += row.CacheMisses
		agg["streamed_rows"] += row.StreamedRows
		agg["inflight_requests"] += row.InflightRequests
	}
	return map[string]any{
		"self":               cs.self,
		"nodes":              len(nodes),
		"reachable":          reachable,
		"forwards":           cs.forwards.Load(),
		"forwarded_received": cs.received.Load(),
		"owner_fallbacks":    cs.fallbacks.Load(),
		"peers":              rows,
		"aggregate":          agg,
	}
}

// fetchPeerStats reads one peer's local stats summary off its /statsz.
func fetchPeerStats(ctx context.Context, client *http.Client, peer string) peerStatsRow {
	row := peerStatsRow{URL: peer}
	pctx, cancel := context.WithTimeout(ctx, peerProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/statsz?scope=local", nil)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	resp, err := client.Do(req)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		row.Error = fmt.Sprintf("status %d", resp.StatusCode)
		return row
	}
	var body struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Analyzers struct {
			Resident       []json.RawMessage `json:"resident"`
			PoolBytesTotal int64             `json:"pool_bytes_total"`
		} `json:"analyzers"`
		Datasets         []string `json:"datasets"`
		StreamedRows     int64    `json:"streamed_rows"`
		InflightRequests int64    `json:"inflight_requests"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&body); err != nil {
		row.Error = fmt.Sprintf("decoding stats: %v", err)
		return row
	}
	row.Reachable = true
	row.Datasets = len(body.Datasets)
	row.Analyzers = len(body.Analyzers.Resident)
	row.PoolBytes = body.Analyzers.PoolBytesTotal
	row.CacheHits = body.Cache.Hits
	row.CacheMisses = body.Cache.Misses
	row.StreamedRows = body.StreamedRows
	row.InflightRequests = body.InflightRequests
	return row
}
