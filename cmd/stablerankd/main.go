// Command stablerankd serves the stable-ranking operators over HTTP: a
// named-dataset registry (loaded from CSV at startup, extendable via POST,
// editable in place via PATCH /v1/datasets/{name} deltas, after which each
// resident analyzer answers the new version over its existing sample pool,
// with per-delta rank drift streamed from GET /v1/{dataset}/drift), the unified
// /v1/query surface (heterogeneous query lists sharing one analyzer plan),
// NDJSON streaming enumeration, an async job worker pool, shared
// per-query-key analyzers so concurrent identical queries share one
// Monte-Carlo sample pool, an LRU result cache, per-request timeouts, and a
// graceful SIGTERM drain.
//
//	stablerankd -addr :8080 -dataset fifa=players.csv -dataset unis=unis.csv
//
// Replicas can be clustered: -peers/-self shards query keys across nodes by
// consistent hashing (non-owned keys are forwarded), -fill-workers farms
// sample-pool chunk builds out to remote workers, and -worker turns a node
// into a pure chunk-fill worker with no query API. Results are bit-identical
// to a single node in every configuration. See the server package
// documentation for the endpoint table and the README's Cluster section for
// topology.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stablerank/internal/cluster"
	"stablerank/server"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stderr, nil))
}

// run is main with its exit code and side effects parameterized for tests.
// If ready is non-nil it receives the bound listen address once the server
// accepts connections.
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("stablerankd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request computation timeout (0 disables)")
		drain       = fs.Duration("drain", 15*time.Second, "graceful shutdown drain window")
		cacheSize   = fs.Int("cache", 512, "LRU response cache entries (0 disables)")
		samples     = fs.Int("samples", 100000, "default Monte-Carlo sample pool size")
		maxSamples  = fs.Int("max-samples", 2000000, "largest accepted ?samples=/?n=")
		seed        = fs.Int64("seed", 1, "default random seed")
		maxUpload   = fs.Int64("max-upload", 32<<20, "largest accepted dataset upload in bytes")
		parallel    = fs.Int("parallel", 0, "sample-pool build workers per analyzer (0 = all cores; results are identical for any value)")
		noHeader    = fs.Bool("no-header", false, "startup CSVs have no header row")
		quiet       = fs.Bool("quiet", false, "disable request logging")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this loopback address, e.g. 127.0.0.1:6060 (empty disables; non-loopback hosts are rejected)")
		jobWorkers  = fs.Int("job-workers", 2, "async job worker pool size (negative disables /v1/jobs)")
		jobQueue    = fs.Int("job-queue", 16, "queued-but-not-running job bound (full queue answers 503)")
		jobTTL      = fs.Duration("job-ttl", 10*time.Minute, "how long finished job results stay retrievable")
		jobTimeout  = fs.Duration("job-timeout", 5*time.Minute, "per-job computation bound (0 disables)")
		streamRows  = fs.Int("max-stream-rows", 100000, "largest NDJSON stream / async enumeration depth")
		dataDir     = fs.String("data", "", "persistence directory: datasets, pool snapshots and job records survive restarts, and unfinished jobs re-run (empty = in-memory only)")
		snapCache   = fs.Bool("snapshot-cache", true, "persist Monte-Carlo pool snapshots under -data so warm restarts skip pool builds")
		maxStore    = fs.Int64("max-store-bytes", 0, "on-disk store size cap; oldest pool snapshots are evicted first (0 = unlimited)")
		peers       = fs.String("peers", "", "comma-separated replica base URLs; enables consistent-hash routing of query keys across the listed nodes (must include -self)")
		selfURL     = fs.String("self", "", "this replica's base URL as the other -peers reach it (required with -peers)")
		fillWorkers = fs.String("fill-workers", "", "comma-separated worker base URLs; sample pools are assembled from remote chunk fills instead of drawn locally (bit-identical either way)")
		fillTimeout = fs.Duration("fill-timeout", 30*time.Second, "per-request timeout for remote chunk fills")
		workerMode  = fs.Bool("worker", false, "serve only the chunk-fill worker protocol on -addr (no query API, no datasets)")
		datasetSpec []string
	)
	fs.Func("dataset", "name=path CSV dataset to serve (repeatable)", func(v string) error {
		datasetSpec = append(datasetSpec, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger := log.New(stderr, "stablerankd: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}

	// Worker mode serves only the chunk-fill protocol: no registry, no query
	// surface, no persistence — a pure compute node a coordinator can farm
	// deterministic pool chunks to.
	if *workerMode {
		worker := &cluster.Worker{MaxSamples: *maxSamples, Logf: logf}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintf(stderr, "stablerankd: listen: %v\n", err)
			return 1
		}
		logger.Printf("fill worker listening on %s", ln.Addr())
		return serveAndDrain(ctx, stderr, logger, ln, worker.Handler(), *drain, ready)
	}

	registry := server.NewRegistry()
	for _, spec := range datasetSpec {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(stderr, "stablerankd: -dataset %q: want name=path\n", spec)
			return 2
		}
		if err := registry.LoadCSVFile(name, path, !*noHeader); err != nil {
			fmt.Fprintf(stderr, "stablerankd: loading dataset %s: %v\n", name, err)
			return 1
		}
		logger.Printf("loaded dataset %q from %s", name, path)
	}

	// The Config zero value means "use the default", so translate this
	// command's explicit "0 disables" flag semantics to the negative values
	// the server package uses for "off".
	reqTimeout := *timeout
	if reqTimeout == 0 {
		reqTimeout = -1
	}
	cacheEntries := *cacheSize
	if cacheEntries == 0 {
		cacheEntries = -1
	}
	jobDeadline := *jobTimeout
	if jobDeadline == 0 {
		jobDeadline = -1
	}
	cfg := server.Config{
		Registry:             registry,
		RequestTimeout:       reqTimeout,
		CacheSize:            cacheEntries,
		MaxUploadBytes:       *maxUpload,
		DefaultSampleCount:   *samples,
		MaxSampleCount:       *maxSamples,
		DefaultSeed:          *seed,
		Workers:              *parallel,
		JobWorkers:           *jobWorkers,
		JobQueueSize:         *jobQueue,
		JobTTL:               *jobTTL,
		JobTimeout:           jobDeadline,
		MaxStreamRows:        *streamRows,
		DataDir:              *dataDir,
		DisableSnapshotCache: !*snapCache,
		MaxStoreBytes:        *maxStore,
		Peers:                splitCSVList(*peers),
		SelfURL:              *selfURL,
		FillWorkers:          splitCSVList(*fillWorkers),
		FillTimeout:          *fillTimeout,
		Logf:                 logf,
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "stablerankd: %v\n", err)
		return 1
	}
	// Close after the drain: in-flight requests finish, then running jobs
	// stop (their records stay running, to re-run at the next boot) and the
	// store flushes.
	defer srv.Close()
	if *dataDir != "" {
		logger.Printf("persisting to %s (snapshot cache %v)", *dataDir, *snapCache)
	}

	// SIGINT/SIGTERM cancels ctx; the HTTP server then drains in-flight
	// requests for up to -drain before closing their connections.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Opt-in profiling endpoint, deliberately on its own listener so the
	// debug surface never shares a port with the public API, and restricted
	// to loopback so it cannot be exposed by accident.
	if *pprofAddr != "" {
		pln, err := listenLoopback(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "stablerankd: -pprof: %v\n", err)
			return 2
		}
		pprofSrv := &http.Server{Handler: pprofMux()}
		go func() { _ = pprofSrv.Serve(pln) }()
		defer pprofSrv.Close() // debug listener: closed on any exit, no drain
		logger.Printf("pprof listening on http://%s/debug/pprof/", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "stablerankd: listen: %v\n", err)
		return 1
	}
	logger.Printf("serving %d dataset(s) on %s", registry.Len(), ln.Addr())
	if len(cfg.Peers) > 0 {
		logger.Printf("clustered: %d replicas, self %s", len(cfg.Peers), cfg.SelfURL)
	}
	if len(cfg.FillWorkers) > 0 {
		logger.Printf("remote chunk fill via %d worker(s)", len(cfg.FillWorkers))
	}
	return serveAndDrain(ctx, stderr, logger, ln, srv.Handler(), *drain, ready)
}

// serveAndDrain serves handler on ln until ctx is cancelled (SIGINT/SIGTERM),
// then drains in-flight requests for up to drain before closing connections.
func serveAndDrain(ctx context.Context, stderr io.Writer, logger *log.Logger, ln net.Listener, handler http.Handler, drain time.Duration, ready chan<- string) int {
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "stablerankd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	logger.Printf("shutdown signal received; draining for up to %s", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "stablerankd: drain incomplete: %v\n", err)
		return 1
	}
	logger.Printf("drained cleanly")
	return 0
}

// splitCSVList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries ("" yields nil).
func splitCSVList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// listenLoopback listens on addr after verifying the host is a loopback
// address ("localhost", 127.0.0.0/8, ::1); a bare ":port" binds 127.0.0.1.
func listenLoopback(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad address %q: %v", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, fmt.Errorf("address %q is not loopback; profiling is localhost-only", addr)
		}
	}
	return net.Listen("tcp", net.JoinHostPort(host, port))
}

// pprofMux routes the net/http/pprof handlers on a dedicated mux instead of
// http.DefaultServeMux, so importing the package leaks nothing onto the
// public API server.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
