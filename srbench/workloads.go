package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"

	"stablerank"
)

// workload is one traffic mix. Everything it sends derives from the seed.
type workload struct {
	name string
	// persist gives every stablerankd this workload starts a fresh -data
	// directory, because its traffic writes: PATCH persists the dataset and
	// new pools persist as snapshots.
	persist bool
	// subscriber holds one drift subscriber open for the whole run; it takes
	// one of the nproc connections, so the throughput phase gets one.
	subscriber bool
	build      func(seed int64) (*scenario, error)
}

// scenario is a workload instantiated for one seed.
type scenario struct {
	datasets []dataInput
	warm     []*op
	next     func() *op // the op stream; not safe for concurrent use
	// driftSamples is the server's default DriftSamples: the rows a PATCH's
	// rank shift is priced over.
	driftSamples int
}

// dataInput is one uploaded dataset: its CSV and the dataset the server
// parses from it.
type dataInput struct {
	name string
	csv  []byte
	ds   *stablerank.Dataset
}

var workloads = []*workload{
	{name: "verify", build: buildVerify},
	{name: "enumerate", build: buildEnumerate},
	{name: "churn", persist: true, subscriber: true, build: buildChurn},
	{name: "regions", persist: true, build: buildRegions},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Independent random streams per purpose, so changing one workload knob
// does not reshuffle every other input of the same seed.
const (
	streamData = iota + 1
	streamOps
)

// corpusSeed fixes each workload's datasets and regions: the corpus is part
// of the workload's definition, and the run seed varies the traffic over it
// (which keys, which rankings, batch composition). Datasets that changed
// with the seed would make runs at different seeds measure different
// programs' worth of work.
const corpusSeed = 1

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// newInput renders ds as the CSV the server receives and re-parses it, so
// the benchmark's copy is exactly the server's.
func newInput(name string, ds *stablerank.Dataset) (dataInput, error) {
	var b bytes.Buffer
	if err := ds.WriteCSV(&b, true); err != nil {
		return dataInput{}, err
	}
	parsed, err := stablerank.ReadCSV(bytes.NewReader(b.Bytes()), true)
	if err != nil {
		return dataInput{}, fmt.Errorf("re-reading dataset %s: %w", name, err)
	}
	return dataInput{name: name, csv: b.Bytes(), ds: parsed}, nil
}

func normalize(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	s = math.Sqrt(s)
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / s
	}
	return out
}

// coneWeights draws a weight vector whose cosine with center is at least
// minCos: it tilts the center by a random angle up to frac of the cone's
// half-angle, toward a random orthogonal direction.
func coneWeights(rng *rand.Rand, center []float64, minCos, frac float64) []float64 {
	c := normalize(center)
	d := len(c)
	u := make([]float64, d)
	for {
		dot := 0.0
		for i := range u {
			u[i] = rng.NormFloat64()
			dot += u[i] * c[i]
		}
		norm := 0.0
		for i := range u {
			u[i] -= dot * c[i]
			norm += u[i] * u[i]
		}
		if norm > 1e-12 {
			break
		}
	}
	u = normalize(u)
	phi := math.Acos(minCos) * frac * rng.Float64()
	w := make([]float64, d)
	for i := range w {
		w[i] = math.Cos(phi)*c[i] + math.Sin(phi)*u[i]
	}
	return w
}

func positiveCenter(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = 0.2 + rng.Float64()
	}
	return normalize(v)
}

func intPtr(v int) *int { return &v }

// deck deals card types from a shuffled fixed deck, reshuffled each pass,
// so every pass holds the exact mix. Drawing op types this way keeps the
// share of slow ops in a run, and with it the run's medians and capacity,
// from drifting with the luck of independent draws.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

// newDeck holds counts[i] cards of type i.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for t, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, t)
		}
	}
	return d
}

func (d *deck) draw() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// ---- verify: Problem 1 on large pools ----

const (
	verifyItems   = 300
	verifySamples = 100_000
	verifyRankN   = 1024 // itemrank prefix rows
	verifyTarget  = 0.02 // adaptive confidence target
)

func buildVerify(seed int64) (*scenario, error) {
	drng := rngFor(corpusSeed, streamData)
	in, err := newInput("players", stablerank.FIFA(drng, verifyItems))
	if err != nil {
		return nil, err
	}
	ref := stablerank.FIFAReferenceWeights()
	cosines := []float64{0.998, 0.995, 0.99}
	centers := make([][]float64, len(cosines))
	for i := range centers {
		centers[i] = coneWeights(drng, ref, 0.99, 1)
	}
	mk := func(rng *rand.Rand, r int, adaptive bool, nVerify int, itemrank bool) *op {
		q := &queryReq{Dataset: in.name, Weights: centers[r], Cosine: cosines[r], Samples: intPtr(verifySamples)}
		class := "verify"
		if adaptive {
			q.Adaptive = verifyTarget
			class = "adaptive"
		}
		for i := 0; i < nVerify; i++ {
			q.Queries = append(q.Queries, querySpec{Op: "verify", Weights: coneWeights(rng, centers[r], cosines[r], 0.9)})
		}
		if itemrank {
			q.Queries = append(q.Queries, querySpec{Op: "itemrank", Item: in.ds.Item(rng.Intn(in.ds.N())).ID, N: verifyRankN})
		}
		o := &op{kind: kQuery, class: class, ds: in.name, q: q, data: in.ds}
		o.encode()
		return o
	}
	wrng := rngFor(seed, streamData+100)
	var warm []*op
	for r := range centers {
		warm = append(warm, mk(wrng, r, false, 1, true), mk(wrng, r, true, 1, false))
	}
	rng := rngFor(seed, streamOps)
	// One request in five is adaptive, one in five carries an itemrank op,
	// and batch sizes cycle through 8..16.
	adaptive, itemrank := newDeck(rng, 4, 1), newDeck(rng, 4, 1)
	sizes := newDeck(rng, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	regions := newDeck(rng, 1, 1, 1)
	return &scenario{
		datasets: []dataInput{in},
		warm:     warm,
		next: func() *op {
			return mk(rng, regions.draw(), adaptive.draw() == 1, 8+sizes.draw(), itemrank.draw() == 1)
		},
	}, nil
}

// ---- enumerate: GET-NEXT producers (Sections 4-5) ----

const (
	enumItems   = 100
	enumCosine  = 0.999
	enumSamples = 20_000
	enumMaxH    = 10
)

func buildEnumerate(seed int64) (*scenario, error) {
	drng := rngFor(corpusSeed, streamData)
	fifa, err := newInput("fifa", stablerank.FIFA(drng, enumItems))
	if err != nil {
		return nil, err
	}
	cs, err := newInput("cs", stablerank.CSMetrics(drng, enumItems))
	if err != nil {
		return nil, err
	}
	ref := stablerank.FIFAReferenceWeights()
	// Thresholds for "above": the stabilities of the 3rd..10th most stable
	// rankings, so each above op enumerates a bounded prefix.
	thresholds := func(ds *stablerank.Dataset, opts ...stablerank.Option) ([]float64, error) {
		a, err := stablerank.New(ds, opts...)
		if err != nil {
			return nil, err
		}
		top, err := a.TopH(context.Background(), enumMaxH)
		if err != nil {
			return nil, err
		}
		s := make([]float64, len(top))
		for i, t := range top {
			s[i] = t.Stability
		}
		return s, nil
	}
	fifaS, err := thresholds(fifa.ds, stablerank.WithSeed(1), stablerank.WithSampleCount(enumSamples), stablerank.WithCosineSimilarity(ref, enumCosine))
	if err != nil {
		return nil, err
	}
	csS, err := thresholds(cs.ds)
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, streamOps)
	depths := newDeck(rng, 1, 1, 1, 1, 1, 1, 1, 1) // h or limit 3..10
	above := newDeck(rng, 4, 1)                    // one enumeration op in five is "above"
	query := func(rng *rand.Rand, in dataInput, st []float64, twoD bool) *op {
		q := &queryReq{Dataset: in.name, Samples: intPtr(enumSamples)}
		class := "toph"
		if !twoD {
			q.Weights, q.Cosine = ref, enumCosine
		} else {
			class = "toph2d"
		}
		h := 3 + depths.draw()
		if above.draw() == 1 && len(st) >= h && st[h-1] > 0 {
			q.Queries = []querySpec{{Op: "above", S: st[h-1]}}
		} else {
			q.Queries = []querySpec{{Op: "toph", H: h}}
		}
		o := &op{kind: kQuery, class: class, ds: in.name, q: q, data: in.ds}
		o.encode()
		return o
	}
	stream := func(rng *rand.Rand) *op {
		o := &op{kind: kStream, class: "stream", ds: fifa.name, data: fifa.ds, get: &getReq{
			op: "enumerate", region: ref, cosine: enumCosine, samples: enumSamples, limit: 3 + depths.draw(),
		}}
		o.encode()
		return o
	}
	wrng := rngFor(seed, streamData+100)
	warm := []*op{query(wrng, fifa, fifaS, false), query(wrng, cs, csS, true), stream(wrng)}
	// Per 20 ops: 11 d=4 queries, 5 on the 2D dataset, 4 streams.
	kinds := newDeck(rng, 11, 5, 4)
	return &scenario{
		datasets: []dataInput{fifa, cs},
		warm:     warm,
		next: func() *op {
			switch kinds.draw() {
			case 1:
				return query(rng, cs, csS, true)
			case 2:
				return stream(rng)
			default:
				return query(rng, fifa, fifaS, false)
			}
		},
	}, nil
}

// ---- churn: PATCH deltas beside cached reads ----

const (
	churnItems   = 1000
	churnMinN    = 900
	churnSamples = 4096
	churnKeys    = 2 // distinct verify weight vectors
)

func buildChurn(seed int64) (*scenario, error) {
	drng := rngFor(corpusSeed, streamData)
	in, err := newInput("churn", stablerank.Independent(drng, churnItems, 4))
	if err != nil {
		return nil, err
	}
	keys := make([][]float64, churnKeys)
	for i := range keys {
		keys[i] = positiveCenter(drng, 4)
	}
	cur := in.ds // the generator's model of the server's dataset
	added := 0
	read := func(k int) *op {
		o := &op{kind: kGet, class: "get-verify", ds: in.name, data: cur,
			get: &getReq{op: "verify", weights: keys[k], samples: churnSamples}}
		o.encode()
		return o
	}
	rng := rngFor(seed, streamOps)
	sizes := newDeck(rng, 1, 1, 1, 1) // PATCH batches of 1..4 deltas
	patch := func() *op {
		k := 1 + sizes.draw()
		used := make(map[string]bool, k)
		var deltas []deltaJSON
		n := cur.N()
		for len(deltas) < k {
			u := rng.Float64()
			attrs := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			if u < 0.1 {
				added++
				deltas = append(deltas, deltaJSON{Op: "add", ID: fmt.Sprintf("new%d", added), Attrs: attrs})
				n++
				continue
			}
			id := cur.Item(rng.Intn(cur.N())).ID
			if used[id] {
				continue
			}
			used[id] = true
			if u < 0.2 && n > churnMinN {
				deltas = append(deltas, deltaJSON{Op: "remove", ID: id})
				n--
			} else {
				deltas = append(deltas, deltaJSON{Op: "update", ID: id, Attrs: attrs})
			}
		}
		next, err := stablerank.ApplyDeltas(cur, toDeltas(deltas)...)
		if err != nil {
			panic(fmt.Sprintf("churn generator built an invalid PATCH: %v", err))
		}
		cur = next
		o := &op{kind: kPatch, class: "patch", ds: in.name, deltas: deltas, data: cur}
		o.encode()
		return o
	}
	// Per 100 ops: 95 verify reads and 5 PATCHes. A PATCH empties the
	// dataset's response cache, so the next read of each key misses it:
	// about a tenth of the reads. read_p50_ms sits among the cache hits.
	kinds := newDeck(rng, 95, 5)
	var warm []*op
	for k := 0; k < churnKeys; k++ {
		warm = append(warm, read(k))
	}
	return &scenario{
		datasets:     []dataInput{in},
		warm:         warm,
		driftSamples: 2048,
		next: func() *op {
			if kinds.draw() == 1 {
				return patch()
			}
			return read(rng.Intn(churnKeys))
		},
	}, nil
}

func toDeltas(ds []deltaJSON) []stablerank.Delta {
	out := make([]stablerank.Delta, len(ds))
	for i, d := range ds {
		out[i] = stablerank.Delta{ID: d.ID, Attrs: append([]float64(nil), d.Attrs...)}
		switch d.Op {
		case "add":
			out[i].Op = stablerank.ItemAdd
		case "remove":
			out[i].Op = stablerank.ItemRemove
		default:
			out[i].Op = stablerank.AttrUpdate
		}
	}
	return out
}

// ---- regions: more (dataset, region) keys than the analyzer cache ----

// Two datasets × 96 regions give 192 keys over the 64-analyzer cache; with
// Zipf 1.1 about a fifth of the requests miss it, so read_p95_ms lies inside
// the latencies of requests that restore a pool, not on their border.
// Snapshot keys do not depend on the data, so both datasets' keys on one
// region share its snapshot.
const (
	regionItems    = 150
	regionCount    = 96
	regionSamples  = 20_000
	regionCosine   = 0.99
	regionCacheCap = 64 // stablerankd's default -max analyzers
	regionZipfS    = 1.1
)

func buildRegions(seed int64) (*scenario, error) {
	drng := rngFor(corpusSeed, streamData)
	ra, err := newInput("ra", stablerank.Independent(drng, regionItems, 4))
	if err != nil {
		return nil, err
	}
	rb, err := newInput("rb", stablerank.Correlated(drng, regionItems, 4))
	if err != nil {
		return nil, err
	}
	centers := make([][]float64, regionCount)
	for i := range centers {
		centers[i] = positiveCenter(drng, 4)
	}
	type key struct {
		in     dataInput
		region int
	}
	var keys []key
	for _, in := range []dataInput{ra, rb} {
		for r := range centers {
			keys = append(keys, key{in, r})
		}
	}
	// Popularity order is a seeded permutation of the keys.
	drng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	mk := func(rng *rand.Rand, k key) *op {
		c := centers[k.region]
		q := &queryReq{Dataset: k.in.name, Weights: c, Cosine: regionCosine, Samples: intPtr(regionSamples),
			Queries: []querySpec{{Op: "verify", Weights: coneWeights(rng, c, regionCosine, 0.9)}}}
		o := &op{kind: kQuery, class: "region", ds: k.in.name, q: q, data: k.in.ds}
		o.encode()
		return o
	}
	// Warm-up touches every region once, so each has a snapshot and a miss
	// in the timed phases restores a pool rather than building one, and ends
	// on the most popular keys, least popular first, so the analyzer cache
	// holds them in an LRU order that matches popularity.
	wrng := rngFor(seed, streamData+100)
	var warm []*op
	seen := make([]bool, regionCount)
	for i := len(keys) - 1; i >= 0; i-- {
		if i < regionCacheCap || !seen[keys[i].region] {
			warm = append(warm, mk(wrng, keys[i]))
		}
		seen[keys[i].region] = true
	}
	rng := rngFor(seed, streamOps)
	zipf := rand.NewZipf(rng, regionZipfS, 1, uint64(len(keys)-1))
	return &scenario{
		datasets: []dataInput{ra, rb},
		warm:     warm,
		next:     func() *op { return mk(rng, keys[zipf.Uint64()]) },
	}, nil
}
