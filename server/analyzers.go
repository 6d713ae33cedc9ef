package server

import (
	"container/list"
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

// analyzerKey identifies one shared Analyzer: requests with equal keys over
// one dataset version get identical results. The dataset's version is not
// part of the key; the cache entry records it (see analyzerPool.get).
type analyzerKey struct {
	dataset string
	region  string
	seed    int64
	samples int
	// adaptive is the adaptive-verification target error (0 = exact sweeps).
	// Adaptive and exact requests must not share an analyzer: equal keys
	// promise identical results.
	adaptive float64
}

// at renders the key at dataset generation gen and delta version ver: the
// /statsz row key and the response cache's key prefix, whose "name@" start
// lets a dataset delta invalidate exactly that dataset's cached responses.
// at(0, 0) is the unversioned form.
func (k analyzerKey) at(gen, ver int64) string {
	s := fmt.Sprintf("%s@%d.%d|%s|seed=%d|n=%d", k.dataset, gen, ver, k.region, k.seed, k.samples)
	if k.adaptive > 0 {
		s += fmt.Sprintf("|adaptive=%s", strconv.FormatFloat(k.adaptive, 'g', -1, 64))
	}
	return s
}

// analyzerPool caches one Analyzer per key: the first request for a key
// constructs it, and every later request gets the cached Analyzer, or an
// Over view of it when the request reads another version of the dataset.
// The expensive sample-pool build happens later, in the Analyzer's pool cell,
// which coalesces the first uses of all requests sharing the cell into one
// build. So N concurrent identical queries cost one pool build, and so does
// any number of PATCHes and same-dimension replacements of the dataset.
//
// Residency is bounded: the pool holds at most max analyzers and evicts the
// least recently used one beyond that, so clients sweeping seeds, sample
// counts, or regions cannot pin sample pools in memory without bound.
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
	dedupHits atomic.Int64 // requests served by a cached analyzer or an Over view of it
	evictions atomic.Int64 // analyzers dropped by the LRU bound
}

// poolItem is one cache entry: the analyzer for key and the dataset version
// (generation, delta version) it answers for.
type poolItem struct {
	key      analyzerKey
	a        *stablerank.Analyzer // guarded by mu
	gen, ver int64                // guarded by mu
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

// get returns the shared Analyzer for key over ds, the registry's dataset
// at generation gen and delta version ver. A resident entry of ds's
// dimension answers through Over: the entry itself at its own version, a
// view sharing its pool cell at another. Otherwise, on a miss or after a
// replacement changed the dimension, get constructs a new Analyzer and
// drops the dataset's unreachable entries of an older dimension. The
// answer replaces the entry's analyzer when (gen, ver) is a newer version
// than the entry's; a request for an older one (it raced a PATCH or a
// replacement) leaves the entry alone. A failed construction is not
// cached, so the key can be retried: deterministic misconfigurations
// surface the same error again.
func (p *analyzerPool) get(key analyzerKey, ds *stablerank.Dataset, gen, ver int64, spec regionSpec) (*stablerank.Analyzer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		a   *stablerank.Analyzer
		err error
	)
	el, ok := p.entries[key]
	if ok && el.Value.(*poolItem).a.Dataset().D() == ds.D() {
		p.dedupHits.Add(1)
		a, err = el.Value.(*poolItem).a.Over(ds)
	} else {
		p.builds.Add(1)
		a, err = p.newAnalyzer(key, ds, spec)
		if err == nil {
			p.dropOtherDimensionLocked(key, ds.D(), gen)
		}
	}
	if err != nil {
		return nil, err
	}
	if ok {
		p.order.MoveToFront(el)
		// Generations only grow and a replacement resets the delta version,
		// so versions order by generation first.
		if it := el.Value.(*poolItem); gen > it.gen || gen == it.gen && ver > it.ver {
			it.a, it.gen, it.ver = a, gen, ver
		}
		return a, nil
	}
	p.entries[key] = p.order.PushFront(&poolItem{key: key, a: a, gen: gen, ver: ver})
	for p.order.Len() > p.max {
		el := p.order.Back()
		p.order.Remove(el)
		delete(p.entries, el.Value.(*poolItem).key)
		p.evictions.Add(1)
	}
	return a, nil
}

// dropOtherDimensionLocked drops the resident entries of key's dataset, other
// than key's own, that answer for a generation older than gen at a dimension
// other than d. A replacement that changed the dimension left them there,
// and no request can reach them: their region weights no longer validate.
// A same-dimension replacement keeps its entries and their pools. The
// caller holds p.mu.
func (p *analyzerPool) dropOtherDimensionLocked(key analyzerKey, d int, gen int64) {
	for el := p.order.Front(); el != nil; {
		next := el.Next()
		if it := el.Value.(*poolItem); it.key.dataset == key.dataset && it.key != key && it.gen < gen && it.a.Dataset().D() != d {
			p.order.Remove(el)
			delete(p.entries, it.key)
		}
		el = next
	}
}

// newAnalyzer constructs the Analyzer for key over ds. Construction draws
// nothing, so get calls it under the cache mutex.
func (p *analyzerPool) newAnalyzer(key analyzerKey, ds *stablerank.Dataset, spec regionSpec) (*stablerank.Analyzer, error) {
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
	return stablerank.New(ds, opts...)
}

// driftSource returns the analyzer a PATCH to the named dataset prices its
// drift on: the dataset's resident full-space analyzer of dimension d with
// a built pool whose unversioned key sorts first, whatever version it last
// answered for, or nil when none qualifies. Region-restricted analyzers
// sample a different weight space, so pricing drift on one would publish
// numbers that depend on which analyzers happen to be resident.
func (p *analyzerPool) driftSource(name string, d int) *stablerank.Analyzer {
	p.mu.Lock()
	items := make([]poolItem, 0, 4)
	for key, el := range p.entries {
		if key.dataset != name || key.region != "full" {
			continue
		}
		items = append(items, *el.Value.(*poolItem))
	}
	p.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].key.at(0, 0) < items[j].key.at(0, 0) })
	for _, it := range items {
		if it.a.PoolBuilt() && it.a.Dataset().D() == d {
			return it.a
		}
	}
	return nil
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
	items := make([]poolItem, 0, len(p.entries))
	for _, el := range p.entries {
		items = append(items, *el.Value.(*poolItem))
	}
	p.mu.Unlock()
	// Sorted keys pin the /statsz resident list: two consecutive renders of
	// an idle server must be byte-identical.
	sort.Slice(items, func(i, j int) bool { return items[i].key.at(0, 0) < items[j].key.at(0, 0) })
	stats = make([]analyzerStat, len(items))
	for i, item := range items {
		a := item.a
		stats[i] = analyzerStat{
			Key:          item.key.at(item.gen, item.ver),
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
