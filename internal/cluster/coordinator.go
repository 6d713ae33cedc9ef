package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stablerank/internal/mc"
	"stablerank/internal/vecmat"
)

// Coordinator assembles Monte-Carlo sample pools from remote chunk fills.
// FillPool partitions the pool's chunk index space across the configured
// fill workers, streams the computed chunks back over HTTP, and splices them
// into one shared matrix. Chunks a worker fails to deliver — it died
// mid-stream, timed out, returned garbage (CRC mismatch), or was never
// reachable — are retried once against the remaining workers and finally
// re-filled locally, so FillPool only fails on context cancellation (or an
// unusable region), and its output is ALWAYS bit-identical to a purely
// local mc.BuildPoolMatrix build. A Coordinator is safe for concurrent use.
type Coordinator struct {
	workers      []string
	client       *http.Client
	timeout      time.Duration
	retryRounds  int
	localWorkers int
	logf         func(format string, args ...any)

	requests        atomic.Int64
	poolsFilled     atomic.Int64
	remoteChunks    atomic.Int64
	localChunks     atomic.Int64
	duplicateChunks atomic.Int64
	corruptChunks   atomic.Int64
	workerErrors    atomic.Int64
	retriedChunks   atomic.Int64
}

// CoordinatorConfig parameterizes NewCoordinator; only Workers is required.
type CoordinatorConfig struct {
	// Workers lists the fill workers' base URLs (scheme://host:port).
	Workers []string
	// Client is the HTTP client for fill requests (default: a dedicated
	// client; the per-request timeout comes from RequestTimeout, not the
	// client, so streams of any length can complete).
	Client *http.Client
	// RequestTimeout bounds one chunk-range fill request end to end
	// (default 30s; the slowest acceptable worker defines it).
	RequestTimeout time.Duration
	// RetryRounds is how many redistribution passes failed chunks get
	// across the surviving workers before the local fill takes over
	// (default 1; negative disables retries).
	RetryRounds int
	// LocalWorkers is the goroutine count of the local fallback fill
	// (default 0 = GOMAXPROCS).
	LocalWorkers int
	// Logf receives one line per worker failure; nil disables logging.
	Logf func(format string, args ...any)
}

// NewCoordinator builds a Coordinator over the given fill workers. An empty
// worker list is valid: every chunk then fills locally, which keeps the
// single-node configuration on the exact same code path.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		workers:      append([]string(nil), cfg.Workers...),
		client:       cfg.Client,
		timeout:      cfg.RequestTimeout,
		retryRounds:  cfg.RetryRounds,
		localWorkers: cfg.LocalWorkers,
		logf:         cfg.Logf,
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.timeout == 0 {
		c.timeout = 30 * time.Second
	}
	if c.retryRounds == 0 {
		c.retryRounds = 1
	}
	return c
}

// Workers returns the configured fill-worker URLs.
func (c *Coordinator) Workers() []string { return append([]string(nil), c.workers...) }

// CoordinatorStats is a point-in-time snapshot of the fill counters.
type CoordinatorStats struct {
	Workers         []string `json:"workers"`
	Requests        int64    `json:"requests"`
	PoolsFilled     int64    `json:"pools_filled"`
	RemoteChunks    int64    `json:"remote_chunks"`
	LocalChunks     int64    `json:"local_fallback_chunks"`
	DuplicateChunks int64    `json:"duplicate_chunks"`
	CorruptChunks   int64    `json:"corrupt_chunks"`
	WorkerErrors    int64    `json:"worker_errors"`
	RetriedChunks   int64    `json:"retried_chunks"`
}

// Stats returns the coordinator's counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Workers:         c.Workers(),
		Requests:        c.requests.Load(),
		PoolsFilled:     c.poolsFilled.Load(),
		RemoteChunks:    c.remoteChunks.Load(),
		LocalChunks:     c.localChunks.Load(),
		DuplicateChunks: c.duplicateChunks.Load(),
		CorruptChunks:   c.corruptChunks.Load(),
		WorkerErrors:    c.workerErrors.Load(),
		RetriedChunks:   c.retriedChunks.Load(),
	}
}

// fillState tracks which chunks of one FillPool call have been spliced.
// Claims are serialized so duplicate deliveries (a retried worker and the
// original both answering) can never race on the same rows; the row copy
// itself happens outside the lock, safe because a chunk is claimed at most
// once and chunk row ranges are disjoint.
type fillState struct {
	mu        sync.Mutex
	filled    []bool
	remaining int
}

func (st *fillState) claim(idx int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.filled[idx] {
		return false
	}
	st.filled[idx] = true
	st.remaining--
	return true
}

func (st *fillState) missing() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []int
	for i, f := range st.filled {
		if !f {
			out = append(out, i)
		}
	}
	return out
}

// FillPool assembles the total-sample pool for (spec, seed): remote-first
// across the configured workers, retried across survivors, locally
// completed. The result is bit-identical to mc.BuildPoolMatrix over the
// same region and seed for ANY worker set, including none and including
// workers dying mid-stream — the load-bearing invariant the cluster tests
// pin.
func (c *Coordinator) FillPool(ctx context.Context, spec RegionSpec, seed int64, total int) (vecmat.Matrix, error) {
	if total < 1 {
		return vecmat.Matrix{}, fmt.Errorf("cluster: pool size %d < 1", total)
	}
	region, err := spec.Region()
	if err != nil {
		return vecmat.Matrix{}, err
	}
	factory := mc.ConeSamplers(region, seed)
	nchunks := mc.Chunks(total)
	pool := vecmat.New(total, spec.D)
	st := &fillState{filled: make([]bool, nchunks), remaining: nchunks}

	if len(c.workers) > 0 {
		all := make([]int, nchunks)
		for i := range all {
			all[i] = i
		}
		c.fillRemote(ctx, spec, seed, total, pool, st, all, false)
		for round := 0; round < c.retryRounds; round++ {
			missing := st.missing()
			if len(missing) == 0 || ctx.Err() != nil {
				break
			}
			c.retriedChunks.Add(int64(len(missing)))
			c.fillRemote(ctx, spec, seed, total, pool, st, missing, true)
		}
	}
	if err := ctx.Err(); err != nil {
		return vecmat.Matrix{}, err
	}
	if missing := st.missing(); len(missing) > 0 {
		if err := c.fillLocal(ctx, factory, total, pool, st, missing); err != nil {
			return vecmat.Matrix{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return vecmat.Matrix{}, err
	}
	c.poolsFilled.Add(1)
	return pool, nil
}

// fillRemote distributes the given chunk indices contiguously across the
// workers and runs one streaming fill request per non-empty share. Failures
// only log and count: whatever is still missing afterwards is the caller's
// problem (retry or local fill).
func (c *Coordinator) fillRemote(ctx context.Context, spec RegionSpec, seed int64, total int, pool vecmat.Matrix, st *fillState, chunks []int, isRetry bool) {
	n := len(c.workers)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		share := chunks[w*len(chunks)/n : (w+1)*len(chunks)/n]
		if len(share) == 0 {
			continue
		}
		wg.Add(1)
		go func(worker string, share []int) {
			defer wg.Done()
			if err := c.fetchChunks(ctx, worker, spec, seed, total, pool, st, share); err != nil {
				c.workerErrors.Add(1)
				verb := "fill"
				if isRetry {
					verb = "retry fill"
				}
				c.logfSafe("cluster: %s of %d chunk(s) from %s failed: %v", verb, len(share), worker, err)
			}
		}(c.workers[w], share)
	}
	wg.Wait()
}

// fetchChunks runs one streaming fill request and splices every valid chunk
// it yields. It returns an error when the stream ended before every
// requested chunk arrived (short stream, transport error, corrupt frame,
// non-200) — but every chunk spliced before the failure stays spliced, so a
// worker dying halfway through its share loses only the unfilled remainder.
func (c *Coordinator) fetchChunks(ctx context.Context, worker string, spec RegionSpec, seed int64, total int, pool vecmat.Matrix, st *fillState, share []int) error {
	reqCtx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	body, err := json.Marshal(FillRequest{
		Region: spec,
		Seed:   seed,
		Total:  total,
		Chunks: share,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, worker+"/cluster/v1/fill", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.requests.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("worker answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	want := len(share)
	got := 0
	for {
		chunk, err := ReadChunk(resp.Body)
		if errors.Is(err, io.EOF) {
			if got < want {
				return fmt.Errorf("stream ended after %d of %d chunks", got, want)
			}
			return nil
		}
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				c.corruptChunks.Add(1)
			}
			return err
		}
		if err := c.splice(chunk, total, pool, st); err != nil {
			c.corruptChunks.Add(1)
			return err
		}
		got++
	}
}

// splice validates one delivered chunk against the pool's geometry and
// copies its rows in, exactly once per chunk index. A duplicate delivery is
// counted and dropped — determinism makes its contents redundant, not
// conflicting. A chunk whose claimed range or shape disagrees with the pool
// is corrupt by definition.
func (c *Coordinator) splice(chunk Chunk, total int, pool vecmat.Matrix, st *fillState) error {
	lo, hi := mc.ChunkRange(chunk.Index, total)
	if hi <= lo {
		return fmt.Errorf("chunk %d out of range for %d samples: %w", chunk.Index, total, ErrCorrupt)
	}
	if chunk.Lo != lo || chunk.Hi != hi {
		return fmt.Errorf("chunk %d claims range [%d, %d), pool says [%d, %d): %w",
			chunk.Index, chunk.Lo, chunk.Hi, lo, hi, ErrCorrupt)
	}
	if chunk.Rows.Stride() != pool.Stride() {
		return fmt.Errorf("chunk %d has dimension %d, pool has %d: %w",
			chunk.Index, chunk.Rows.Stride(), pool.Stride(), ErrCorrupt)
	}
	if !st.claim(chunk.Index) {
		c.duplicateChunks.Add(1)
		return nil
	}
	for i := 0; i < chunk.Rows.Rows(); i++ {
		pool.SetRow(lo+i, chunk.Rows.Row(i))
	}
	c.remoteChunks.Add(1)
	return nil
}

// fillLocal computes the remaining chunks in-process, sharded across the
// configured local workers — the path that guarantees FillPool completes
// with a bit-identical pool no matter what the remote workers did. A chunk
// that fails to fill stops every local worker before its next chunk.
func (c *Coordinator) fillLocal(ctx context.Context, factory mc.SamplerFactory, total int, pool vecmat.Matrix, st *fillState, missing []int) error {
	fill := func(i int) error {
		if err := mc.FillChunkInto(ctx, factory, missing[i], total, pool); err != nil {
			return err
		}
		st.claim(missing[i])
		c.localChunks.Add(1)
		return nil
	}
	return mc.Shard(ctx, len(missing), c.localWorkers, func(int) func(int) error { return fill })
}

func (c *Coordinator) logfSafe(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}
