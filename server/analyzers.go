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
	// (sharing their sample pools) instead of being rebuilt.
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

// analyzerPool caches one Analyzer per key: the first request for a key
// constructs it, and every later request gets the cached Analyzer.
// Construction draws nothing, so it runs under the cache mutex; the
// expensive sample-pool build happens later, in the Analyzer's pool cell,
// which coalesces the first uses of all requests sharing the Analyzer into
// one build. So N concurrent identical queries cost one pool build.
//
// Residency is bounded: the pool holds at most max analyzers and evicts the
// least recently used one beyond that, so clients sweeping seeds, sample
// counts, or regions (or datasets being replaced, which bumps the
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

	builds    atomic.Int64 // Analyzer constructions attempted
	dedupHits atomic.Int64 // requests served by a cached analyzer
	evictions atomic.Int64 // analyzers dropped by the LRU bound
}

type poolItem struct {
	key analyzerKey
	a   *stablerank.Analyzer
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

// get returns the shared Analyzer for key, constructing it from ds and spec
// on a miss. A failed construction is not cached, so the key can be
// retried: deterministic misconfigurations surface the same error again.
func (p *analyzerPool) get(key analyzerKey, ds *stablerank.Dataset, spec regionSpec) (*stablerank.Analyzer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.entries[key]; ok {
		p.order.MoveToFront(el)
		p.dedupHits.Add(1)
		return el.Value.(*poolItem).a, nil
	}
	p.builds.Add(1)
	opts, err := spec.options(key.seed, key.samples, p.workers, key.adaptive)
	if err != nil {
		return nil, err
	}
	if p.snaps != nil {
		// The analyzer restores its sample pool from a persisted snapshot
		// instead of redrawing it, and persists the pool it does draw.
		opts = append(opts, stablerank.WithPoolCache(p.snaps.cacheFor(ds, key)))
	}
	if p.coord != nil {
		opts = append(opts, stablerank.WithPoolFiller(poolFillerFor(p.coord, ds, key, spec)))
	}
	a, err := stablerank.New(ds, opts...)
	if err != nil {
		return nil, err
	}
	p.entries[key] = p.order.PushFront(&poolItem{key: key, a: a})
	for p.order.Len() > p.max {
		el := p.order.Back()
		p.order.Remove(el)
		delete(p.entries, el.Value.(*poolItem).key)
		p.evictions.Add(1)
	}
	return a, nil
}

// applyDeltas migrates resident analyzers of the named dataset from the
// exact pre-PATCH (oldGen, oldVer) key to the new (gen, ver) key by applying
// the deltas to each — ApplyDelta shares the Monte-Carlo pool cell, so the
// migrated analyzers answer queries against the mutated dataset without
// drawing a sample. Every other name-matching entry is dropped, not
// migrated: an analyzer left over from an older generation (or inserted by a
// racing request against a different version) holds a different dataset,
// and applying the deltas to it would rekey stale results under the current
// key. Returns how many analyzers were migrated and dropped, and the drift
// analyzer: the full-space migrated analyzer with a built pool whose key
// sorts first (deterministic regardless of map iteration order), or nil when
// none qualifies — region-restricted analyzers sample a different weight
// space, so pricing drift on one would publish numbers that depend on which
// analyzers happen to be resident.
func (p *analyzerPool) applyDeltas(name string, oldGen, oldVer, gen, ver int64, deltas []stablerank.Delta) (migrated, dropped int, driftA *stablerank.Analyzer) {
	p.mu.Lock()
	matches := make([]*poolItem, 0, 4)
	for key, el := range p.entries {
		if key.dataset != name {
			continue
		}
		matches = append(matches, el.Value.(*poolItem))
	}
	p.mu.Unlock()
	// Migrate in sorted-key order so eviction order doesn't depend on map
	// iteration order.
	sort.Slice(matches, func(i, j int) bool { return matches[i].key.String() < matches[j].key.String() })

	var driftKey string
	for _, item := range matches {
		var na *stablerank.Analyzer
		if item.key.gen == oldGen && item.key.ver == oldVer {
			a, err := item.a.ApplyDelta(context.Background(), deltas...) //srlint:ctxflow migration must complete atomically for every resident analyzer, not just the patching request's
			if err == nil {
				na = a
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
				p.entries[nkey] = p.order.PushFront(&poolItem{key: nkey, a: na})
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
	return migrated, dropped, driftA
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
func (p *analyzerPool) snapshot() (stats []analyzerStat, builds, dedupHits, evictions int64) {
	p.mu.Lock()
	items := make([]*poolItem, 0, len(p.entries))
	for _, el := range p.entries {
		items = append(items, el.Value.(*poolItem))
	}
	p.mu.Unlock()
	// Sorted keys pin the /statsz resident list: two consecutive renders of
	// an idle server must be byte-identical.
	sort.Slice(items, func(i, j int) bool { return items[i].key.String() < items[j].key.String() })
	stats = make([]analyzerStat, len(items))
	for i, item := range items {
		a := item.a
		stats[i] = analyzerStat{
			Key:          item.key.String(),
			SampleCount:  a.SampleCount(),
			PoolBuilt:    a.PoolBuilt(),
			PoolBuilds:   a.PoolBuilds(),
			PoolRestores: a.PoolRestores(),
			Workers:      a.Workers(),
			PoolBuildMS:  float64(a.PoolBuildDuration().Microseconds()) / 1000,
			PoolBytes:    a.PoolMemoryBytes(),
			SnapshotKey:  a.PoolSnapshotKey(),

			AdaptiveTarget:    a.AdaptiveTargetError(),
			AdaptiveStops:     a.AdaptiveStops(),
			AdaptiveRowsSaved: a.AdaptiveRowsSaved(),
		}
	}
	return stats, p.builds.Load(), p.dedupHits.Load(), p.evictions.Load()
}
