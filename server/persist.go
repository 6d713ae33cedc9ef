package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"stablerank"
	"stablerank/internal/store"
)

// Persistence glue: how the server's three durable layers ride on the
// pluggable internal/store subsystem.
//
//   - Dataset catalog: Registry.AttachStore (registry.go) reloads persisted
//     datasets at boot and persists every Add.
//   - Pool snapshots: snapshotCache hands each analyzer a keyed PoolCache,
//     so a warm restart reinstalls previously drawn Monte-Carlo pools
//     (PoolBuilds == 0) instead of resampling them.
//   - Job records: jobPersister records every job's lifecycle with its
//     request; a restart re-enqueues unfinished jobs and runs them again
//     from the start. The answer is deterministic, so the re-run returns
//     the bytes the interrupted run would have.

// ---------------------------------------------------------------------------
// Pool snapshot cache.

// snapshotCache adapts the store's pools namespace to stablerank.PoolCache.
// Snapshots are keyed by (dimension, region, seed, samples, layout-version):
// exactly what the deterministic weight-space draw depends on, plus the codec
// version so a format change reads as a miss. Dataset content is deliberately
// NOT part of the key — pool samples are weight-space points, so replacing or
// patching a dataset of the same dimension reuses the snapshot verbatim. (An
// earlier scheme keyed on the dataset content hash; those entries were
// orphaned by every re-upload and are garbage-collected by sweepStale at
// boot.)
type snapshotCache struct {
	st       store.Store
	maxBytes int64 // whole-store cap; snapshots are evicted oldest-first under it
	logf     func(format string, args ...any)

	hits         atomic.Int64
	misses       atomic.Int64
	writes       atomic.Int64
	bytesWritten atomic.Int64
	quarantined  atomic.Int64
	evictions    atomic.Int64
	swept        atomic.Int64
}

func newSnapshotCache(st store.Store, maxBytes int64, logf func(string, ...any)) *snapshotCache {
	return &snapshotCache{st: st, maxBytes: maxBytes, logf: logf}
}

// snapshotKey renders the canonical pool identity for one analyzer key. The
// dimension is included because the draw emits d components per sample; name,
// generation and content hash are not, because the draw depends on none of
// them.
func snapshotKey(d int, key analyzerKey) string {
	return fmt.Sprintf("d=%d|%s|seed=%d|n=%d|layout=%d",
		d, key.region, key.seed, key.samples, stablerank.PoolLayoutVersion)
}

// cacheFor returns the PoolCache an analyzer built for key should use.
func (c *snapshotCache) cacheFor(ds *stablerank.Dataset, key analyzerKey) stablerank.PoolCache {
	return &keyedPoolCache{c: c, key: snapshotKey(ds.D(), key)}
}

// poolKeyRE matches the current snapshot key format's prefix.
var poolKeyRE = regexp.MustCompile(`^d=\d+\|`)

// sweepStale garbage-collects pool snapshots that no analyzer can ever load
// again: entries in an old key format (content-hash keyed, orphaned by each
// dataset replacement and never reclaimed — the bug this sweep fixes) or an
// old snapshot layout version. Runs once at boot; the count lands in
// /statsz store.snapshots.swept.
func (c *snapshotCache) sweepStale() int {
	entries, err := c.st.Entries(store.NSPools)
	if err != nil {
		c.logf("stablerankd: listing pool snapshots for sweep: %v", err)
		return 0
	}
	layoutSuffix := fmt.Sprintf("|layout=%d", stablerank.PoolLayoutVersion)
	removed := 0
	for _, e := range entries {
		if poolKeyRE.MatchString(e.Key) && strings.HasSuffix(e.Key, layoutSuffix) {
			continue
		}
		if c.st.Delete(store.NSPools, e.Key) == nil {
			removed++
		}
	}
	if removed > 0 {
		c.swept.Add(int64(removed))
		c.logf("stablerankd: swept %d stale pool snapshot(s)", removed)
	}
	return removed
}

// keyedPoolCache is one (snapshotCache, key) binding; the analyzer calls it
// lazily on first pool need.
type keyedPoolCache struct {
	c   *snapshotCache
	key string
}

func (k *keyedPoolCache) Key() string { return k.key }

// Load fetches the snapshot bytes. Corruption is already quarantined by the
// store; here it only counts and degrades to a miss, so the analyzer
// rebuilds — a damaged snapshot must never surface as an error.
func (k *keyedPoolCache) Load() ([]byte, bool) {
	data, err := k.c.st.Get(store.NSPools, k.key)
	switch {
	case err == nil:
		k.c.hits.Add(1)
		return data, true
	case errors.Is(err, store.ErrCorrupt):
		k.c.quarantined.Add(1)
		k.c.logf("stablerankd: pool snapshot %s corrupt, quarantined and rebuilding: %v", k.key, err)
	case errors.Is(err, store.ErrNotFound):
		// Plain miss.
	default:
		k.c.logf("stablerankd: pool snapshot %s read failed: %v", k.key, err)
	}
	k.c.misses.Add(1)
	return nil, false
}

// Save persists a freshly built pool, evicting the oldest snapshots first
// when a store byte cap is configured. Saving is best-effort: a full disk
// costs warm restarts, not queries.
func (k *keyedPoolCache) Save(snapshot []byte) {
	c := k.c
	if c.maxBytes > 0 {
		if int64(len(snapshot)) > c.maxBytes {
			c.logf("stablerankd: pool snapshot %s (%d bytes) exceeds -max-store-bytes %d, not cached", k.key, len(snapshot), c.maxBytes)
			return
		}
		if c.st.SizeBytes()+int64(len(snapshot)) > c.maxBytes {
			entries, err := c.st.Entries(store.NSPools)
			if err == nil {
				for _, e := range entries { // oldest first
					if c.st.SizeBytes()+int64(len(snapshot)) <= c.maxBytes {
						break
					}
					if c.st.Delete(store.NSPools, e.Key) == nil {
						c.evictions.Add(1)
					}
				}
			}
		}
		if c.st.SizeBytes()+int64(len(snapshot)) > c.maxBytes {
			c.logf("stablerankd: store at -max-store-bytes cap, pool snapshot %s not cached", k.key)
			return
		}
	}
	if err := c.st.Put(store.NSPools, k.key, snapshot); err != nil {
		c.logf("stablerankd: persisting pool snapshot %s: %v", k.key, err)
		return
	}
	c.writes.Add(1)
	c.bytesWritten.Add(int64(len(snapshot)))
}

// ---------------------------------------------------------------------------
// Job records.

// jobRecord is the persisted lifecycle of one async job. The original
// request travels with it so an unfinished job can be recompiled against the
// reloaded registry after a restart.
type jobRecord struct {
	ID      string         `json:"id"`
	State   string         `json:"state"`
	Created time.Time      `json:"created"`
	Started *time.Time     `json:"started,omitempty"`
	Ended   *time.Time     `json:"ended,omitempty"`
	Request *queryRequest  `json:"request,omitempty"`
	Error   string         `json:"error,omitempty"`
	Result  *queryResponse `json:"result,omitempty"`
}

// jobPersister writes job records through the store.
type jobPersister struct {
	st   store.Store
	logf func(format string, args ...any)

	restoredJobs atomic.Int64
}

func newJobPersister(st store.Store, logf func(string, ...any)) *jobPersister {
	return &jobPersister{st: st, logf: logf}
}

// saveJob persists j's current lifecycle state.
func (p *jobPersister) saveJob(j *job) {
	var req *queryRequest
	if j.cq != nil {
		req = j.cq.req
	}
	rec := jobRecord{
		ID:      j.id,
		State:   string(j.state),
		Created: j.created,
		Request: req,
		Error:   j.errMsg,
		Result:  j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		rec.Started = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		rec.Ended = &t
	}
	data, err := json.Marshal(rec)
	if err != nil {
		p.logf("stablerankd: encoding job %s record: %v", j.id, err)
		return
	}
	if err := p.st.Put(store.NSJobs, j.id, data); err != nil {
		p.logf("stablerankd: persisting job %s: %v", j.id, err)
	}
}

// forget removes a job's record (DELETE, TTL purge).
func (p *jobPersister) forget(id string) {
	_ = p.st.Delete(store.NSJobs, id)
}

// retiredCheckpoints is the namespace where earlier versions kept the
// rendered prefix of each running enumeration job. Nothing reads it now,
// and -max-store-bytes counts every namespace, so reclaimCheckpoints
// deletes its entries.
const retiredCheckpoints = "checkpoints"

// reclaimCheckpoints deletes every entry left in the retired checkpoints
// namespace. Runs once at boot.
func (p *jobPersister) reclaimCheckpoints() {
	entries, err := p.st.Entries(retiredCheckpoints)
	if err != nil {
		p.logf("stablerankd: listing retired job checkpoints: %v", err)
		return
	}
	removed := 0
	for _, e := range entries {
		if p.st.Delete(retiredCheckpoints, e.Key) == nil {
			removed++
		}
	}
	if removed > 0 {
		p.logf("stablerankd: removed %d retired job checkpoint(s)", removed)
	}
}

// jobSeq extracts the numeric suffix of a job id ("j17" -> 17).
func jobSeq(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ---------------------------------------------------------------------------
// Restore at boot.

// restore reloads persisted jobs into a fresh jobStore: terminal records
// become retrievable results again (their TTL restarts from their original
// end time), unfinished ones are recompiled against the reloaded registry
// and re-enqueued to run again from the start. Called from New, before the
// server handles requests.
func (st *jobStore) restore(s *Server) {
	p := st.persist
	entries, err := p.st.Entries(store.NSJobs)
	if err != nil {
		p.logf("stablerankd: listing persisted jobs: %v", err)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var maxSeq int64
	for _, e := range entries {
		data, err := p.st.Get(store.NSJobs, e.Key)
		if err != nil {
			p.logf("stablerankd: job record %q unreadable, dropped: %v", e.Key, err)
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			p.logf("stablerankd: job record %q malformed, dropped: %v", e.Key, err)
			_ = p.st.Delete(store.NSJobs, e.Key)
			continue
		}
		if n := jobSeq(rec.ID); n > maxSeq {
			maxSeq = n
		}
		j := &job{
			id:      rec.ID,
			state:   jobState(rec.State),
			created: rec.Created,
			errMsg:  rec.Error,
			result:  rec.Result,
		}
		if rec.Started != nil {
			j.started = *rec.Started
		}
		if rec.Ended != nil {
			j.ended = *rec.Ended
			if st.ttl >= 0 {
				j.expires = j.ended.Add(st.ttl)
			}
		}
		switch j.state {
		case jobDone, jobFailed, jobCancelled:
			// A finished job: its result (or verdict) is served again.
		case jobQueued, jobRunning:
			j.started = time.Time{}
			j.result = nil
			j.state = jobQueued
			fail := func(msg string) {
				j.state = jobFailed
				j.errMsg = msg
				j.ended = time.Now()
				if st.ttl >= 0 {
					j.expires = j.ended.Add(st.ttl)
				}
				p.saveJob(j)
			}
			if rec.Request == nil {
				fail("job record has no request to recompile after restart")
				break
			}
			cq, err := s.compileQuery(rec.Request, s.jobLimits())
			if err != nil {
				fail(fmt.Sprintf("recompiling after restart: %v", err))
				break
			}
			j.cq = cq
		default:
			p.logf("stablerankd: job record %q has unknown state %q, dropped", rec.ID, rec.State)
			continue
		}
		st.jobs[j.id] = j
		if j.state == jobQueued {
			if len(st.queue) < st.queueSize {
				st.enqueueLocked(j)
				p.restoredJobs.Add(1)
			} else {
				j.state = jobFailed
				j.errMsg = "job queue full at restart"
				j.ended = time.Now()
				if st.ttl >= 0 {
					j.expires = j.ended.Add(st.ttl)
				}
				p.saveJob(j)
			}
		}
	}
	// Fresh ids must never collide with restored ones.
	for {
		cur := st.seq.Load()
		if cur >= maxSeq || st.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
}

// storeStats is the /statsz "store" section.
func (s *Server) storeStats() map[string]any {
	if s.store == nil {
		return map[string]any{"enabled": false}
	}
	out := map[string]any{
		"enabled":         true,
		"path":            s.cfg.DataDir,
		"bytes":           s.store.SizeBytes(),
		"max_bytes":       s.cfg.MaxStoreBytes,
		"datasets_loaded": s.datasetsLoaded,
	}
	if c := s.snapshots; c != nil {
		out["snapshots"] = map[string]any{
			"enabled":       true,
			"hits":          c.hits.Load(),
			"misses":        c.misses.Load(),
			"writes":        c.writes.Load(),
			"bytes_written": c.bytesWritten.Load(),
			"quarantined":   c.quarantined.Load(),
			"evictions":     c.evictions.Load(),
			"swept":         c.swept.Load(),
		}
	} else {
		out["snapshots"] = map[string]any{"enabled": false}
	}
	if p := s.persister; p != nil {
		out["restored_jobs"] = p.restoredJobs.Load()
	}
	return out
}
