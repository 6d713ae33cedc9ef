// Package server implements stablerankd, the HTTP serving layer over the
// stablerank library: a named-dataset registry, an LRU cache of one shared
// concurrency-safe Analyzer per (dataset, region, seed, samples) key
// whatever the dataset's version — whose pool cell coalesces concurrent
// identical queries, and the queries of every later version of the same
// dimension, into a single Monte-Carlo sample pool build — an LRU cache of
// rendered responses, per-request timeouts plumbed into the library's
// context plumbing, and /healthz + /statsz observability.
//
// Endpoints (all responses JSON):
//
//	GET    /healthz                    liveness
//	GET    /statsz                     cache hit rate, analyzers, jobs, streams
//	GET    /datasets                   registered datasets
//	POST   /datasets/{name}?header=    register a CSV dataset (request body)
//	PATCH  /v1/datasets/{name}         apply a JSON delta list (add/remove/update)
//	GET    /v1/{dataset}/drift         NDJSON stream of per-delta stability drift
//	POST   /v1/query                   any mix of queries in one shared plan
//	GET    /v1/query/stream            NDJSON incremental enumeration
//	POST   /v1/jobs                    run a query list asynchronously
//	GET    /v1/jobs/{id}               job status + result
//	DELETE /v1/jobs/{id}               cancel (or discard) a job
//	GET    /v1/{dataset}/verify        Problem 1: stability of ?weights= or ?ranking=
//	GET    /v1/{dataset}/toph          Problem 2: ?h= most stable rankings
//	GET    /v1/{dataset}/above         Problem 2: rankings with stability >= ?s=
//	GET    /v1/{dataset}/itemrank      Example 1: rank distribution of ?item=
//	GET    /v1/{dataset}/rankings      Problem 3: paginated enumeration
//	*      /cluster/v1/{ping,fill}     chunk-fill worker protocol (binary)
//
// There is one query path. POST /v1/query is the uniform surface over the
// library's query model: the body names a dataset, the shared
// region/seed/samples parameters, and a heterogeneous list of operations
// (verify, toph, above, itemrank, boundary, enumerate) answered by one
// Analyzer.Do call — one sample-pool build and one fused sweep for the whole
// list. The other query surfaces run the same pipeline: each
// GET /v1/{dataset}/{op} decodes its URL into a one-operation request and
// answers with that operation's result plus the dataset name, from an LRU
// cache keyed by analyzer and canonical operation; GET /v1/query/stream
// emits one NDJSON line per enumerated ranking with the running stability
// mass; and POST /v1/jobs runs a POST /v1/query body on a bounded worker
// pool, for enumerations too long to hold a connection open.
//
// The GET endpoints share the region parameters ?weights= (comma-separated)
// with optional ?theta= (hypercone half-angle) or ?cosine= (minimum cosine
// similarity), plus ?seed= and ?samples=. Identical parameter tuples map to
// one shared Analyzer.
//
// Datasets are mutable in place: PATCH /v1/datasets/{name} applies a JSON
// delta list ({"deltas":[{"op":"update","id":"x","attrs":[...]}, ...]})
// without invalidating derived state wholesale. Pool samples are weight-space
// points — independent of dataset content — so a PATCH touches no analyzer:
// the next read of each resident key answers through an Over view of its
// analyzer over the mutated dataset, on the same sample pool; pool
// snapshots survive deltas entirely; and the response cache is invalidated
// per dataset, not globally. Each PATCH's stability drift (score and rank displacement of the
// touched items across the pool) is published to GET /v1/{dataset}/drift
// subscribers as NDJSON.
//
// With Config.DataDir set the server is durable: registered datasets, built
// Monte-Carlo sample pools (as checksummed snapshots keyed by dimension,
// region, seed, samples and codec layout version — dataset content is
// irrelevant to the draw) and async
// job state all persist under that directory, so a restart reloads the
// catalog, answers its first query from a restored pool without resampling
// (PoolBuilds stays 0 and results are bit-identical — the pool draw is
// deterministic, so a restored pool IS the pool that would have been drawn),
// and re-runs unfinished jobs from the start (the answer is deterministic,
// so a re-run returns the bytes the interrupted run would have). Corrupt
// entries are quarantined and rebuilt, never fatal. The /statsz "store"
// section reports snapshot hits/misses/bytes and the restored job count.
//
// Servers cluster two ways, separately or together. Config.Peers/SelfURL
// shard analyzer keys across replicas on a consistent-hash ring: every node
// computes the same owner for a key, non-owners forward POST /v1/query and
// GET /v1/{dataset}/{op} one hop (X-Stablerank-Served-By names the
// answering node), streams and jobs stay local. Config.FillWorkers
// assembles sample pools from remote chunk fills over /cluster/v1/fill
// instead of drawing locally. Both are placement-only: chunk contents
// depend only on (region, seed, chunk index), so any configuration —
// including every failure fallback — produces byte-identical answers to a
// single node. /healthz gains per-peer status (status "degraded" when a
// peer is down) and /statsz gains "fill" and "cluster" sections;
// ?scope=local confines either endpoint to the queried node.
package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stablerank/internal/cluster"
	"stablerank/internal/store"
)

// Config parameterizes a Server. The zero value is usable; Defaults fills
// unset fields.
type Config struct {
	// Registry is the dataset catalog; nil means start empty.
	Registry *Registry
	// RequestTimeout bounds each request's computation (default 30s;
	// negative disables).
	RequestTimeout time.Duration
	// CacheSize is the LRU response cache capacity in entries (default 512;
	// negative disables caching).
	CacheSize int
	// MaxUploadBytes caps POST /datasets bodies (default 32 MiB).
	MaxUploadBytes int64
	// DefaultSampleCount is the Monte-Carlo pool size when ?samples= is
	// absent (default 100,000 — the paper's Section 6.3 choice).
	DefaultSampleCount int
	// MaxSampleCount rejects ?samples= and ?n= beyond this bound
	// (default 2,000,000).
	MaxSampleCount int
	// DefaultSeed is the sampler seed when ?seed= is absent (default 1).
	DefaultSeed int64
	// MaxEnumerate caps ?h=, ?per_page= and page*per_page (default 1,000).
	MaxEnumerate int
	// MaxAnalyzers bounds the resident analyzers, one per (dataset, region,
	// seed, samples, adaptive) key whatever the dataset's version, and with
	// them the retained Monte-Carlo sample pools; least recently used ones
	// are evicted beyond it (default 64).
	MaxAnalyzers int
	// MaxRankingItems truncates rankings in responses to this many leading
	// items (default 100).
	MaxRankingItems int
	// Workers is the per-analyzer worker count for sample-pool builds and
	// batch sweeps (default 0 = GOMAXPROCS). Results are deterministic
	// regardless of this value; it is a throughput knob only.
	Workers int
	// MaxBatchOps caps the number of operations in one POST /v1/query or
	// POST /v1/jobs request (default 256; 413 beyond it).
	MaxBatchOps int
	// MaxStreamRows caps the rankings emitted by one GET /v1/query/stream
	// response and the enumeration depth of async jobs (default 100,000).
	MaxStreamRows int
	// JobWorkers is the size of the async job worker pool (default 2;
	// negative disables the jobs endpoints).
	JobWorkers int
	// JobQueueSize bounds the queued-but-not-running jobs; submissions
	// beyond it are answered 503 (default 16).
	JobQueueSize int
	// JobTTL is how long a finished job's result stays retrievable before
	// the store forgets it (default 10m; negative keeps results until
	// DELETEd).
	JobTTL time.Duration
	// JobTimeout bounds one job's computation (default 5m; negative
	// disables).
	JobTimeout time.Duration
	// DataDir enables persistence: datasets, pool snapshots and job records
	// are stored under this directory and reloaded on the next boot, which
	// re-runs unfinished jobs. Empty (the default) keeps the server fully
	// in-memory.
	DataDir string
	// DisableSnapshotCache turns off pool-snapshot persistence while keeping
	// the dataset catalog and job records (only meaningful with DataDir).
	DisableSnapshotCache bool
	// MaxStoreBytes caps the on-disk store; beyond it the oldest pool
	// snapshots are evicted first and, at the floor, new snapshots are simply
	// not cached (0 = unlimited).
	MaxStoreBytes int64
	// Peers is the full replica set of a sharded cluster, this node
	// included, as base URLs. Analyzer keys are placed on the set by
	// consistent hashing and POST /v1/query plus the GET /v1/{dataset}/{op}
	// endpoints are forwarded to each key's owner; an unreachable owner
	// degrades to serving locally (the pool draw is deterministic, so every
	// node answers every key bit-identically). Empty (the default) runs
	// standalone. Every node must be configured with the same set — order
	// and duplicates do not matter.
	Peers []string
	// SelfURL is this node's own entry in Peers (required when Peers is
	// set): how the node recognizes the keys it owns.
	SelfURL string
	// FillWorkers lists remote fill workers (base URLs of stablerankd
	// nodes, or of -worker processes) that Monte-Carlo pool builds are
	// farmed out to, chunk by chunk. Failed or corrupt chunks are re-filled
	// locally, bit-identically. Empty keeps pool builds local.
	FillWorkers []string
	// FillTimeout bounds one chunk-range fill request to one worker
	// (default 30s).
	FillTimeout time.Duration
	// DriftSamples is how many pool rows the per-delta rank-shift measurement
	// sweeps when publishing to GET /v1/{dataset}/drift (default 2048). Each
	// row scores both endpoint datasets once and ranks every touched item,
	// O(n) each, sharded over the analyzer's workers. While drift
	// subscribers are connected the PATCH response waits for this pricing,
	// so it sets the latency a subscriber adds to every PATCH: about 10 ms
	// for a one-delta batch at n=1000, d=4 on two cores.
	DriftSamples int
	// Logf receives one line per request; nil disables logging.
	Logf func(format string, args ...any)
}

// Defaults returns a copy of c with every unset field at its default.
func (c Config) Defaults() Config {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.DefaultSampleCount == 0 {
		c.DefaultSampleCount = 100_000
	}
	if c.MaxSampleCount == 0 {
		c.MaxSampleCount = 2_000_000
	}
	if c.DefaultSeed == 0 {
		c.DefaultSeed = 1
	}
	if c.MaxEnumerate == 0 {
		c.MaxEnumerate = 1_000
	}
	if c.MaxAnalyzers == 0 {
		c.MaxAnalyzers = 64
	}
	if c.MaxRankingItems == 0 {
		c.MaxRankingItems = 100
	}
	if c.MaxBatchOps == 0 {
		c.MaxBatchOps = 256
	}
	if c.MaxStreamRows == 0 {
		c.MaxStreamRows = 100_000
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueSize == 0 {
		c.JobQueueSize = 16
	}
	if c.JobTTL == 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.FillTimeout == 0 {
		c.FillTimeout = 30 * time.Second
	}
	if c.DriftSamples == 0 {
		c.DriftSamples = 2048
	}
	return c
}

// Server is the stablerankd request processor. Create with New, mount with
// Handler, and run it under any http.Server (cmd/stablerankd adds the
// listener and graceful SIGTERM drain).
type Server struct {
	cfg       Config
	registry  *Registry
	analyzers *analyzerPool
	cache     *lruCache
	jobs      *jobStore
	handler   http.Handler
	start     time.Time
	now       func() time.Time // clock hook; tests pin it for byte-stable /statsz
	closeOnce sync.Once

	// Persistence (nil/zero without Config.DataDir).
	store          store.Store
	snapshots      *snapshotCache
	persister      *jobPersister
	datasetsLoaded int

	// Cluster state (nil without Config.Peers) and the chunk-fill protocol:
	// every node serves fills (fillWorker); nodes with Config.FillWorkers
	// also delegate their own pool builds (coordinator).
	cluster     *clusterState
	coordinator *cluster.Coordinator
	fillWorker  *cluster.Worker

	inflightRequests atomic.Int64
	// streamedRows counts NDJSON enumeration lines served by
	// GET /v1/query/stream, for /statsz.
	streamedRows atomic.Int64

	// Dataset-delta state: deltaMu serializes PATCH application per process
	// (registry mutation and cache invalidation move as one unit), drift
	// fans events out to GET /v1/{dataset}/drift subscribers, and the
	// counters feed /statsz "deltas" (see delta.go).
	deltaMu          sync.Mutex
	drift            *driftHub
	deltasApplied    atomic.Int64
	cacheInvalidated atomic.Int64
	cacheSurvivals   atomic.Int64
}

// New builds a Server from cfg (zero value fine). With Config.DataDir set it
// opens the store, reloads the persisted dataset catalog, re-enqueues
// unfinished async jobs (to run again from the start), and hands every
// analyzer a pool-snapshot cache so warm restarts skip Monte-Carlo pool
// builds entirely.
func New(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	s := &Server{
		cfg:       cfg,
		registry:  cfg.Registry,
		analyzers: newAnalyzerPool(cfg.MaxAnalyzers, cfg.Workers),
		cache:     newLRUCache(cfg.CacheSize),
		start:     time.Now(),
		now:       time.Now,
		fillWorker: &cluster.Worker{
			MaxSamples: cfg.MaxSampleCount,
			Logf:       cfg.Logf,
		},
		drift: newDriftHub(),
	}
	if len(cfg.Peers) > 0 {
		cs, err := newClusterState(cfg.Peers, cfg.SelfURL, cfg.RequestTimeout)
		if err != nil {
			return nil, err
		}
		s.cluster = cs
	}
	if len(cfg.FillWorkers) > 0 {
		s.coordinator = cluster.NewCoordinator(cluster.CoordinatorConfig{
			Workers:        cfg.FillWorkers,
			RequestTimeout: cfg.FillTimeout,
			LocalWorkers:   cfg.Workers,
			Logf:           cfg.Logf,
		})
		s.analyzers.coord = s.coordinator
	}
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir)
		if err != nil {
			return nil, fmt.Errorf("server: opening data dir %q: %w", cfg.DataDir, err)
		}
		s.store = st
		if s.datasetsLoaded, err = s.registry.AttachStore(st, s.logf); err != nil {
			st.Close()
			return nil, err
		}
		if !cfg.DisableSnapshotCache {
			s.snapshots = newSnapshotCache(st, cfg.MaxStoreBytes, s.logf)
			s.analyzers.snaps = s.snapshots
			// Reclaim snapshots no analyzer can load anymore (old key formats
			// were content-hash keyed and leaked one entry per replacement).
			s.snapshots.sweepStale()
		}
		s.persister = newJobPersister(st, s.logf)
		s.persister.reclaimCheckpoints()
	}
	s.jobs = newJobStore(cfg.JobWorkers, cfg.JobQueueSize, cfg.JobTTL, cfg.JobTimeout, s.execQuery, s.persister)
	if s.persister != nil {
		s.jobs.restore(s)
	}
	s.handler = s.wrap(s.routes())
	return s, nil
}

// Handler returns the fully middleware-wrapped root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close shuts the server down in dependency order: first the async job
// workers stop (cancelling running jobs, whose records stay "running" so the
// next boot re-runs them), then the store is flushed and closed — so every
// job-record write strictly precedes the flush and a kill right after Close
// loses nothing. The HTTP handler itself holds no background state; after Close
// the jobs endpoints answer 503. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.jobs.close()
		if s.store != nil {
			if err := s.store.Flush(); err != nil {
				s.logf("stablerankd: flushing store: %v", err)
			}
			if err := s.store.Close(); err != nil {
				s.logf("stablerankd: closing store: %v", err)
			}
		}
	})
}

// Registry returns the server's dataset registry, for startup loading.
func (s *Server) Registry() *Registry { return s.registry }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
