package server

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"stablerank"
	"stablerank/internal/cluster"
)

// regionSpec is the canonical form of the region-of-interest query
// parameters. Exactly one of theta/cosine may be set, and both require
// weights; weights alone (or nothing) means the whole function space.
type regionSpec struct {
	weights []float64
	theta   float64 // > 0: hypercone half-angle around weights
	cosine  float64 // > 0: minimum cosine similarity with weights
}

// canonical renders the spec as a stable string usable inside map and cache
// keys: identical queries collapse to identical analyzers and cache slots.
// Without theta/cosine the region is the full function space regardless of
// the weights (they then only pick the ranking being asked about, which is
// keyed per endpoint), so all full-space queries share one analyzer.
func (rs regionSpec) canonical() string {
	if rs.theta <= 0 && rs.cosine <= 0 {
		return "full"
	}
	var b strings.Builder
	if rs.theta > 0 {
		b.WriteString("cone:")
	} else {
		b.WriteString("cosine:")
	}
	for i, w := range rs.weights {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
	}
	if rs.theta > 0 {
		fmt.Fprintf(&b, ";theta=%s", strconv.FormatFloat(rs.theta, 'g', -1, 64))
	} else {
		fmt.Fprintf(&b, ";cos=%s", strconv.FormatFloat(rs.cosine, 'g', -1, 64))
	}
	return b.String()
}

// validate enforces the semantic region contract shared by the GET query
// parameters and the POST /v1/query body fields: weights must match the
// dataset dimension, and a present-but-unusable theta/cosine must fail
// loudly (silently falling back to the full function space would answer a
// very different question with a 200). thetaSet/cosineSet distinguish
// "absent" from an explicit zero, which the GET path derives from parameter
// presence and the body path from a non-zero JSON field.
func (rs regionSpec) validate(d int, thetaSet, cosineSet bool) error {
	if len(rs.weights) > 0 && len(rs.weights) != d {
		return errBadRequest("region weights have %d components, dataset has %d attributes", len(rs.weights), d)
	}
	if thetaSet && !(rs.theta > 0 && rs.theta <= math.Pi) {
		return errBadRequest("theta must be in (0, pi], got %v", rs.theta)
	}
	if cosineSet && !(rs.cosine > 0 && rs.cosine <= 1) {
		return errBadRequest("cosine must be in (0, 1], got %v", rs.cosine)
	}
	return nil
}

// options translates the spec into analyzer options. workers is a pure
// throughput knob (deterministic seeding makes results independent of it),
// which is why it is configured per pool rather than keyed per analyzer;
// adaptive changes reported results, so it IS part of the analyzer key.
func (rs regionSpec) options(seed int64, samples, workers int, adaptive float64) ([]stablerank.Option, error) {
	opts := []stablerank.Option{
		stablerank.WithSeed(seed),
		stablerank.WithSampleCount(samples),
		stablerank.WithWorkers(workers),
	}
	if adaptive > 0 {
		opts = append(opts, stablerank.WithAdaptive(adaptive))
	}
	region, err := stablerank.RegionOption(rs.weights, rs.theta, rs.cosine)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if region != nil {
		opts = append(opts, region)
	}
	return opts, nil
}

// analyzerKey identifies one shared Analyzer. Two requests with equal keys
// are guaranteed identical results, so they may share an Analyzer — and with
// it the expensive Monte-Carlo sample pool.
type analyzerKey struct {
	dataset string
	gen     int64
	// ver is the dataset's delta version within the generation. A PATCH bumps
	// it, and resident analyzers are migrated to the new key via ApplyDelta
	// (splicing their state) instead of being rebuilt.
	ver     int64
	region  string
	seed    int64
	samples int
	// adaptive is the adaptive-verification target error (0 = exact sweeps).
	// Adaptive and exact requests must not share an analyzer: equal keys
	// promise identical results.
	adaptive float64
}

func (k analyzerKey) String() string {
	s := fmt.Sprintf("%s@%d.%d|%s|seed=%d|n=%d", k.dataset, k.gen, k.ver, k.region, k.seed, k.samples)
	if k.adaptive > 0 {
		s += fmt.Sprintf("|adaptive=%s", strconv.FormatFloat(k.adaptive, 'g', -1, 64))
	}
	return s
}

// analyzerPool deduplicates Analyzer construction per key, singleflight
// style: the first request for a key builds, concurrent requests for the
// same key wait for that build, and later requests get the cached Analyzer.
// Since an Analyzer draws its sample pool once and shares it across calls,
// this collapses N concurrent identical queries into one pool build.
//
// Residency is bounded: the pool holds at most max completed analyzers and
// evicts the least recently used one beyond that, so clients sweeping seeds,
// sample counts, or regions (or datasets being replaced, which bumps the
// generation in the key) cannot pin sample pools in memory without bound.
// Evicted analyzers stay alive for requests already holding them and are
// collected when those finish.
type analyzerPool struct {
	mu      sync.Mutex
	max     int
	workers int            // sample-pool build workers per analyzer (0 = GOMAXPROCS)
	snaps   *snapshotCache // nil = no pool-snapshot persistence
	// coord, when set, assembles sample pools from remote chunk fills
	// instead of drawing them locally (bit-identically either way; see
	// cluster.Coordinator). The snapshot cache still takes precedence.
	coord   *cluster.Coordinator
	order   *list.List                    // guarded by mu; front = most recently used; values *poolItem
	entries map[analyzerKey]*list.Element // guarded by mu

	builds    atomic.Int64 // Analyzer constructions started
	dedupHits atomic.Int64 // requests served by an existing entry
	inflight  atomic.Int64 // builds currently running
	evictions atomic.Int64 // completed analyzers dropped by the LRU bound
}

type poolItem struct {
	key analyzerKey
	e   *analyzerEntry
}

type analyzerEntry struct {
	ready chan struct{} // closed when the build finishes
	a     *stablerank.Analyzer
	err   error
}

// done reports whether the entry's build has finished.
func (e *analyzerEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

func newAnalyzerPool(max, workers int) *analyzerPool {
	if max < 1 {
		max = 1
	}
	if workers < 0 {
		workers = 0
	}
	return &analyzerPool{
		max:     max,
		workers: workers,
		order:   list.New(),
		entries: make(map[analyzerKey]*list.Element),
	}
}

// get returns the shared Analyzer for key, building it (at most once per
// key, regardless of concurrency) from ds and spec. A failed build is
// forgotten so the key can be retried — deterministic misconfigurations
// surface the same error again, transient conditions get a fresh chance.
func (p *analyzerPool) get(key analyzerKey, ds *stablerank.Dataset, spec regionSpec) (*stablerank.Analyzer, error) {
	p.mu.Lock()
	if el, ok := p.entries[key]; ok {
		p.order.MoveToFront(el)
		e := el.Value.(*poolItem).e
		p.mu.Unlock()
		p.dedupHits.Add(1)
		<-e.ready
		return e.a, e.err
	}
	e := &analyzerEntry{ready: make(chan struct{})}
	p.entries[key] = p.order.PushFront(&poolItem{key: key, e: e})
	// Evict the least recently used *completed* analyzers beyond the bound;
	// in-flight builds are skipped (their requests still need the entry for
	// deduplication).
	for el := p.order.Back(); p.order.Len() > p.max && el != nil; {
		prev := el.Prev()
		if item := el.Value.(*poolItem); item.e != e && item.e.done() {
			p.order.Remove(el)
			delete(p.entries, item.key)
			p.evictions.Add(1)
		}
		el = prev
	}
	p.mu.Unlock()

	p.builds.Add(1)
	p.inflight.Add(1)
	opts, err := spec.options(key.seed, key.samples, p.workers, key.adaptive)
	if err == nil {
		if p.snaps != nil {
			// The analyzer restores its sample pool from a persisted snapshot
			// instead of redrawing it, and persists the pool it does draw.
			opts = append(opts, stablerank.WithPoolCache(p.snaps.cacheFor(ds, key)))
		}
		if p.coord != nil {
			opts = append(opts, stablerank.WithPoolFiller(poolFillerFor(p.coord, ds, key, spec)))
		}
		e.a, e.err = stablerank.New(ds, opts...)
	} else {
		e.err = err
	}
	p.inflight.Add(-1)
	close(e.ready)

	if e.err != nil {
		p.mu.Lock()
		// Only forget the entry if it is still ours; a concurrent retry may
		// already have replaced it.
		if el, ok := p.entries[key]; ok && el.Value.(*poolItem).e == e {
			p.order.Remove(el)
			delete(p.entries, key)
		}
		p.mu.Unlock()
	}
	return e.a, e.err
}

// applyDeltas migrates resident analyzers of the named dataset from the
// exact pre-PATCH (oldGen, oldVer) key to the new (gen, ver) key by splicing
// the deltas into their derived state — ApplyDelta shares the built
// Monte-Carlo pool, so the migrated analyzers answer queries against the
// mutated dataset without drawing a sample. Every other name-matching entry
// is dropped, not spliced: an analyzer left over from an older generation
// (or inserted by a racing build against a different version) holds state
// derived from different dataset content, and splicing the deltas into it
// would rekey stale results under the current key. In-flight or failed
// builds are likewise dropped (the next request rebuilds under the new key,
// exactly as before deltas existed). Returns how many analyzers were
// migrated and dropped, the total splice/re-sort work, and the drift
// analyzer: the full-space migrated analyzer with a built pool whose key
// sorts first (deterministic regardless of map iteration order), or nil when
// none qualifies — region-restricted analyzers sample a different weight
// space, so pricing drift on one would publish numbers that depend on which
// analyzers happen to be resident.
func (p *analyzerPool) applyDeltas(name string, oldGen, oldVer, gen, ver int64, deltas []stablerank.Delta) (migrated, dropped int, spliced, resorted int64, driftA *stablerank.Analyzer) {
	p.mu.Lock()
	matches := make([]*poolItem, 0, 4)
	for key, el := range p.entries {
		if key.dataset != name {
			continue
		}
		matches = append(matches, el.Value.(*poolItem))
	}
	p.mu.Unlock()
	// Migrate in sorted-key order so splice/resort counters and eviction
	// order don't depend on map iteration order.
	sort.Slice(matches, func(i, j int) bool { return matches[i].key.String() < matches[j].key.String() })

	var driftKey string
	for _, item := range matches {
		var na *stablerank.Analyzer
		if item.key.gen == oldGen && item.key.ver == oldVer &&
			item.e.done() && item.e.err == nil && item.e.a != nil {
			beforeSp, beforeRs := item.e.a.DeltaSplices(), item.e.a.DeltaResorts()
			a, err := item.e.a.ApplyDelta(context.Background(), deltas...) //srlint:ctxflow splice must complete atomically for every resident analyzer, not just the patching request's
			if err == nil {
				na = a
				spliced += na.DeltaSplices() - beforeSp
				resorted += na.DeltaResorts() - beforeRs
			}
		}
		nkey := item.key
		nkey.gen, nkey.ver = gen, ver
		p.mu.Lock()
		if el, ok := p.entries[item.key]; ok && el.Value.(*poolItem) == item {
			p.order.Remove(el)
			delete(p.entries, item.key)
		}
		if na != nil {
			if _, exists := p.entries[nkey]; !exists {
				e := &analyzerEntry{ready: make(chan struct{}), a: na}
				close(e.ready)
				p.entries[nkey] = p.order.PushFront(&poolItem{key: nkey, e: e})
			}
		}
		p.mu.Unlock()
		if na != nil {
			migrated++
			if item.key.region == "full" && na.PoolBuilt() {
				if k := nkey.String(); driftA == nil || k < driftKey {
					driftA, driftKey = na, k
				}
			}
		} else {
			dropped++
		}
	}
	return migrated, dropped, spliced, resorted, driftA
}

// analyzerStat is one resident analyzer's /statsz row. PoolBytes is the full
// retained footprint: the sample matrix, the interned snapshot key, once
// built the pool's kd-tree counting index, and the memoized enumeration
// prefix (at most the matrix's size; in 2D it is all there is).
type analyzerStat struct {
	Key          string  `json:"key"`
	SampleCount  int     `json:"sample_count"`
	PoolBuilt    bool    `json:"pool_built"`
	PoolBuilds   int64   `json:"pool_builds"`
	PoolRestores int64   `json:"pool_restores"`
	Workers      int     `json:"workers"`
	PoolBuildMS  float64 `json:"pool_build_ms"`
	PoolBytes    int64   `json:"pool_bytes"`
	SnapshotKey  string  `json:"snapshot_key,omitempty"`
	// AdaptiveTarget/AdaptiveStops/AdaptiveRowsSaved report adaptive
	// verification on this analyzer: the configured target error, how many
	// verifies stopped early, and the pool rows those stops skipped.
	AdaptiveTarget    float64 `json:"adaptive_target,omitempty"`
	AdaptiveStops     int64   `json:"adaptive_stops,omitempty"`
	AdaptiveRowsSaved int64   `json:"adaptive_rows_saved,omitempty"`
}

// snapshot reports the resident analyzers and the pool counters.
func (p *analyzerPool) snapshot() (stats []analyzerStat, builds, dedupHits, inflight, evictions int64) {
	p.mu.Lock()
	items := make([]*poolItem, 0, len(p.entries))
	for _, el := range p.entries {
		items = append(items, el.Value.(*poolItem))
	}
	p.mu.Unlock()
	// Sorted keys pin the /statsz resident list: two consecutive renders of
	// an idle server must be byte-identical.
	sort.Slice(items, func(i, j int) bool { return items[i].key.String() < items[j].key.String() })
	stats = make([]analyzerStat, 0, len(items))
	for _, item := range items {
		if !item.e.done() {
			continue // build still in flight; skip rather than block /statsz
		}
		if item.e.err != nil || item.e.a == nil {
			continue
		}
		stats = append(stats, analyzerStat{
			Key:          item.key.String(),
			SampleCount:  item.e.a.SampleCount(),
			PoolBuilt:    item.e.a.PoolBuilt(),
			PoolBuilds:   item.e.a.PoolBuilds(),
			PoolRestores: item.e.a.PoolRestores(),
			Workers:      item.e.a.Workers(),
			PoolBuildMS:  float64(item.e.a.PoolBuildDuration().Microseconds()) / 1000,
			PoolBytes:    item.e.a.PoolMemoryBytes(),
			SnapshotKey:  item.e.a.PoolSnapshotKey(),

			AdaptiveTarget:    item.e.a.AdaptiveTargetError(),
			AdaptiveStops:     item.e.a.AdaptiveStops(),
			AdaptiveRowsSaved: item.e.a.AdaptiveRowsSaved(),
		})
	}
	return stats, p.builds.Load(), p.dedupHits.Load(), p.inflight.Load(), p.evictions.Load()
}
