package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"stablerank"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/store"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
	"stablerank/server"
)

// The trace ladder replays a sample of the workload's ops, one at a time,
// at each rung of entry points:
//
//	http     loopback HTTP to the live stablerankd
//	handler  server.New(cfg).Handler().ServeHTTP in this process
//	library  the stablerank.Analyzer call the op compiles to
//	kernels  the md / mc / twod / vecmat / store / dataset functions under it
//
// Each rung is a span; a rung's self time is its duration minus the
// duration of the rung below it for the same op. Every sampled HTTP answer
// must equal the library's answer bit for bit.

// ladderOps is how many ops of the stream the ladder replays per workload.
var ladderOps = map[string]int{"verify": 16, "enumerate": 24, "churn": 200, "regions": 24}

// coldRepeats is how many times the ladder times each cold-key rung.
const coldRepeats = 3

// ladderResult holds every rung duration (ms unless named otherwise).
type ladderResult struct {
	samples map[string][]float64
	counts  map[string]float64
}

func (l *ladderResult) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// library is the benchmark's own stablerank state, kept in step with the
// live server: the current datasets, analyzers by key, and kernel pools.
type library struct {
	ds        map[string]*stablerank.Dataset
	an        map[string]*stablerank.Analyzer
	pools     map[string]vecmat.Matrix
	driftRows int
}

// libKey identifies the analyzer an op runs on, as the server keys it.
type libKey struct {
	ds       string
	region   []float64 // nil: the full space
	cosine   float64
	samples  int
	adaptive float64
}

func (k libKey) String() string {
	return fmt.Sprintf("%s|%v|%g|%d|%g", k.ds, k.region, k.cosine, k.samples, k.adaptive)
}

func (k libKey) poolKey() string {
	return fmt.Sprintf("%v|%g|%d", k.region, k.cosine, k.samples)
}

func keyOf(o *op) libKey {
	switch o.kind {
	case kQuery:
		return libKey{ds: o.ds, region: o.q.Weights, cosine: o.q.Cosine, samples: *o.q.Samples, adaptive: o.q.Adaptive}
	case kPatch:
		// A PATCH migrates, and prices its drift on, the resident full-space
		// analyzer churn's reads use.
		return libKey{ds: o.ds, samples: churnSamples}
	default:
		return libKey{ds: o.ds, region: o.get.region, cosine: o.get.cosine, samples: o.get.samples}
	}
}

// options are the analyzer options stablerankd derives for the key.
func (k libKey) options() []stablerank.Option {
	opts := []stablerank.Option{stablerank.WithSeed(1), stablerank.WithSampleCount(k.samples), stablerank.WithWorkers(0)}
	if k.adaptive > 0 {
		opts = append(opts, stablerank.WithAdaptive(k.adaptive))
	}
	if k.region != nil {
		opts = append(opts, stablerank.WithCosineSimilarity(k.region, k.cosine))
	}
	return opts
}

// analyzer returns the warmed analyzer for k over the current dataset.
func (lib *library) analyzer(ctx context.Context, k libKey) (*stablerank.Analyzer, error) {
	if a, ok := lib.an[k.String()]; ok {
		return a, nil
	}
	a, err := stablerank.New(lib.ds[k.ds], k.options()...)
	if err != nil {
		return nil, err
	}
	if err := a.Warm(ctx); err != nil {
		return nil, err
	}
	lib.an[k.String()] = a
	return a, nil
}

// pool returns the kernel-level copy of k's sample pool: the same draw the
// analyzer makes, built with mc.BuildPoolMatrix.
func (lib *library) pool(ctx context.Context, k libKey, a *stablerank.Analyzer) (vecmat.Matrix, error) {
	pk := k.poolKey()
	if p, ok := lib.pools[pk]; ok {
		return p, nil
	}
	p, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(a.Region(), 1), k.samples, a.Dataset().D(), runtime.NumCPU())
	if err != nil {
		return vecmat.Matrix{}, err
	}
	lib.pools[pk] = p
	return p, nil
}

// pipeWriter is a streaming http.ResponseWriter over an io.Pipe, so the
// in-process server can hold a drift subscriber open like the live one.
type pipeWriter struct {
	h  http.Header
	pw *io.PipeWriter
}

func (w *pipeWriter) Header() http.Header         { return w.h }
func (w *pipeWriter) Write(p []byte) (int, error) { return w.pw.Write(p) }
func (w *pipeWriter) WriteHeader(int)             {}
func (w *pipeWriter) Flush()                      {}

// inProcess is the handler rung: a server.Server with the live server's
// datasets and config, in this process.
type inProcess struct {
	srv     *server.Server
	h       http.Handler
	stopSub func()
}

func newInProcess(ctx context.Context, b *bench, lib *library) (*inProcess, error) {
	dir := ""
	if b.w.persist {
		dir = filepath.Join(b.scratch, "inprocess")
	}
	logger := log.New(io.Discard, "stablerankd: ", log.LstdFlags)
	srv, err := server.New(server.Config{DataDir: dir, Logf: logger.Printf})
	if err != nil {
		return nil, err
	}
	ip := &inProcess{srv: srv, h: srv.Handler(), stopSub: func() {}}
	for _, in := range b.sc.datasets {
		var csv bytes.Buffer
		if err := lib.ds[in.name].WriteCSV(&csv, true); err != nil {
			srv.Close()
			return nil, err
		}
		rec := httptest.NewRecorder()
		ip.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/datasets/"+in.name, &csv))
		if rec.Code != http.StatusCreated {
			srv.Close()
			return nil, fmt.Errorf("in-process upload %s: status %d", in.name, rec.Code)
		}
	}
	if b.w.subscriber {
		sctx, cancel := context.WithCancel(ctx)
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			req := httptest.NewRequest(http.MethodGet, "/v1/"+b.sc.datasets[0].name+"/drift", nil).WithContext(sctx)
			ip.h.ServeHTTP(&pipeWriter{h: http.Header{}, pw: pw}, req)
			pw.Close()
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, pr)
		}()
		ip.stopSub = func() {
			cancel()
			<-done
			<-drained
		}
	}
	return ip, nil
}

func (ip *inProcess) close() {
	ip.stopSub()
	ip.srv.Close()
}

func (ip *inProcess) serve(o *op) (*httptest.ResponseRecorder, time.Time, time.Time) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req := httptest.NewRequest(o.method, o.path, body)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	ip.h.ServeHTTP(rec, req)
	return rec, t0, time.Now()
}

// fetch is the HTTP rung: the whole answer, read raw.
func fetch(ctx context.Context, c *client, o *op) (int, string, []byte, time.Time, time.Time, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, c.base+o.path, body)
	if err != nil {
		return 0, "", nil, time.Time{}, time.Time{}, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, t0, time.Now(), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Cache"), raw, t0, time.Now(), err
}

// runLadder replays the next ladder ops of the stream down every rung.
func runLadder(ctx context.Context, b *bench, r *runner) (*ladderResult, error) {
	lr := &ladderResult{samples: map[string][]float64{}, counts: map[string]float64{}}
	lib := &library{ds: map[string]*stablerank.Dataset{}, an: map[string]*stablerank.Analyzer{}, pools: map[string]vecmat.Matrix{}, driftRows: b.sc.driftSamples}
	for _, in := range b.sc.datasets {
		lib.ds[in.name] = b.current[in.name]
	}
	ip, err := newInProcess(ctx, b, lib)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	// Warm the in-process server like the live one was.
	for _, o := range b.sc.warm {
		if rec, _, _ := ip.serve(o); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process warm-up %s: status %d", o.path, rec.Code)
		}
	}
	tr := r.trace
	// Churn's response cache makes the rungs agree only once both servers
	// have seen a PATCH (which empties the live cache for the dataset), so
	// ops before the first PATCH run on every rung but are not timed.
	synced := b.w.name != "churn"
	for i := 0; i < ladderOps[b.w.name]; i++ {
		o := b.next()
		k := keyOf(o)
		a, err := lib.analyzer(ctx, k)
		if err != nil {
			return nil, err
		}
		if o.kind != kPatch && b.w.name != "churn" {
			// Untimed first pass, so every rung times the warm path.
			if _, _, _, _, _, err := fetch(ctx, r.c, o); err != nil {
				return nil, err
			}
			ip.serve(o)
		}
		r.mu.Lock()
		r.attempted++
		r.mu.Unlock()
		status, xcache, body, h0, h1, err := fetch(ctx, r.c, o)
		if err != nil {
			return nil, fmt.Errorf("ladder op %d over HTTP: %w", o.id, err)
		}
		var st answerStats
		if o.kind == kStream {
			if status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			} else {
				_, err = b.chk.readStream(o, bytes.NewReader(body), func() {}, &st)
			}
		} else {
			err = b.chk.check(o, status, body, &st)
		}
		if err == nil && o.kind == kPatch {
			err = r.notePatch(o, st.patchVersion, h0)
		}
		if err != nil {
			return nil, fmt.Errorf("ladder op %d (%s): %w", o.id, o.class, err)
		}
		rec, s0, s1 := ip.serve(o)
		if rec.Code != status {
			return nil, fmt.Errorf("ladder op %d: in-process status %d, HTTP %d", o.id, rec.Code, status)
		}
		if o.kind != kPatch && !bytes.Equal(rec.Body.Bytes(), body) {
			return nil, fmt.Errorf("ladder op %d (%s): in-process answer differs from the HTTP answer", o.id, o.class)
		}
		timed := synced
		libDur, err := lr.libraryRung(ctx, b, r, lib, a, k, o, body, timed)
		if err != nil {
			return nil, fmt.Errorf("ladder op %d (%s): %w", o.id, o.class, err)
		}
		if o.kind == kPatch {
			synced = true
		}
		if !timed {
			continue
		}
		tr.add(o.id, "http", "", h0, h1)
		tr.add(o.id, "handler", "http", s0, s1)
		lr.add("http.self", ms(h1.Sub(h0))-ms(s1.Sub(s0)))
		switch {
		case o.kind == kPatch:
			lr.add("server.write_self", ms(s1.Sub(s0))-libDur)
		case xcache == "hit":
			// A cached answer never reaches the library.
		default:
			lr.add("server.self", ms(s1.Sub(s0))-libDur)
		}
	}
	if err := lr.coldRungs(ctx, b, lib); err != nil {
		return nil, err
	}
	return lr, nil
}

// libraryRung runs o through the library and the kernels under it, checks
// the HTTP answer against the library's bit for bit, records spans and
// returns the library rung's duration.
func (lr *ladderResult) libraryRung(ctx context.Context, b *bench, r *runner, lib *library, a *stablerank.Analyzer, k libKey, o *op, body []byte, timed bool) (float64, error) {
	tr := r.trace
	span := func(name, parent string, t0, t1 time.Time) {
		if timed {
			tr.add(o.id, name, parent, t0, t1)
		}
	}
	rec := func(name string, v float64) {
		if timed {
			lr.add(name, v)
		}
	}
	ds := lib.ds[o.ds]
	switch o.kind {
	case kPatch:
		deltas := toDeltas(o.deltas)
		t0 := time.Now()
		nds, err := stablerank.ApplyDeltas(ds, deltas...)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		na, err := a.ApplyDelta(ctx, deltas...)
		t2 := time.Now()
		if err != nil {
			return 0, err
		}
		drifts, err := na.LastDrift(ctx, b.sc.driftSamples)
		t3 := time.Now()
		if err != nil {
			return 0, err
		}
		span("dataset.ApplyDeltas", "library", t0, t1)
		span("core.ApplyDelta", "library", t1, t2)
		span("core.LastDrift", "library", t2, t3)
		span("library", "handler", t0, t3)
		rec("dataset.apply_deltas", ms(t1.Sub(t0)))
		rec("core.apply_delta", ms(t2.Sub(t1)))
		rec("core.last_drift", ms(t3.Sub(t2)))
		// The live subscriber's events for this PATCH must equal the
		// library's drift bit for bit.
		r.mu.Lock()
		v := r.lastVersion
		r.mu.Unlock()
		if r.sub == nil {
			return 0, fmt.Errorf("PATCH to version %d: no drift subscription", v)
		}
		evs, _, ok := r.sub.await(v, len(drifts), 10*time.Second)
		if !ok {
			return 0, fmt.Errorf("PATCH to version %d: %d drift events, want %d", v, len(evs), len(drifts))
		}
		for i, d := range drifts {
			if err := sameDrift(evs[i], d); err != nil {
				return 0, fmt.Errorf("drift event %d of version %d: %w", i, v, err)
			}
		}
		if err := patchKernels(ctx, lib, k, a, ds, nds, o, drifts, span, rec); err != nil {
			return 0, err
		}
		lib.ds[o.ds] = nds
		lib.an[k.String()] = na
		return ms(t3.Sub(t0)), nil
	case kStream:
		var got []stablerank.Stable
		t0 := time.Now()
		for res, err := range a.Stream(ctx, stablerank.EnumerateQuery{Limit: o.get.limit}) {
			if err != nil {
				return 0, err
			}
			got = append(got, *res.Stable)
		}
		t1 := time.Now()
		span("library", "handler", t0, t1)
		rec("core.do", ms(t1.Sub(t0)))
		if err := sameStream(body, ds, got); err != nil {
			return 0, err
		}
		return ms(t1.Sub(t0)), enumKernels(ctx, lib, k, a, ds, len(got), false, span, rec)
	}
	queries, err := libQueries(o, ds)
	if err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	sweeps, saved := a.Sweeps(), a.AdaptiveRowsSaved()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := a.Do(ctx, queries...)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	span("library", "handler", t0, t1)
	rec("core.do", ms(t1.Sub(t0)))
	rec("core.do_allocs", float64(m1.Mallocs-m0.Mallocs))
	rec("core.do_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	rec("core.sweeps", float64(a.Sweeps()-sweeps))
	if timed && k.adaptive > 0 {
		lr.counts["adaptive.pool_rows"] = float64(k.samples)
		lr.counts["adaptive.rows_saved"] += float64(a.AdaptiveRowsSaved() - saved)
		for _, q := range queries {
			if _, ok := q.(stablerank.VerifyQuery); ok {
				lr.counts["adaptive.verifies"]++
			}
		}
	}
	if err := sameAnswer(o, body, ds, res); err != nil {
		return 0, err
	}
	switch o.class {
	case "toph":
		depth := len(res[0].Stables)
		if o.q.Queries[0].Op == "above" {
			depth++ // the cursor steps past the threshold once
		}
		err = enumKernels(ctx, lib, k, a, ds, depth, false, span, rec)
	case "toph2d":
		depth := len(res[0].Stables)
		if o.q.Queries[0].Op == "above" {
			depth++
		}
		err = enumKernels(ctx, lib, k, a, ds, depth, true, span, rec)
	default:
		err = verifyKernels(ctx, lib, k, a, ds, o, res, span, rec)
	}
	return ms(t1.Sub(t0)), err
}

// libQueries compiles an op to the library queries stablerankd runs.
func libQueries(o *op, ds *stablerank.Dataset) ([]stablerank.Query, error) {
	if o.kind == kGet {
		return []stablerank.Query{stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, o.get.weights)}}, nil
	}
	qs := make([]stablerank.Query, len(o.q.Queries))
	for i, q := range o.q.Queries {
		switch q.Op {
		case "verify":
			qs[i] = stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, q.Weights)}
		case "itemrank":
			idx := -1
			for j := 0; j < ds.N(); j++ {
				if ds.Item(j).ID == q.Item {
					idx = j
				}
			}
			qs[i] = stablerank.ItemRankQuery{Item: idx, Samples: q.N}
		case "toph":
			qs[i] = stablerank.TopHQuery{H: q.H}
		case "above":
			qs[i] = stablerank.AboveQuery{Threshold: q.S}
		default:
			return nil, fmt.Errorf("no library query for op %q", q.Op)
		}
	}
	return qs, nil
}

func sameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: HTTP %v, library %v", what, got, want)
	}
	return nil
}

func sameItems(ds *stablerank.Dataset, got []itemRef, order []int) error {
	for i, it := range got {
		if i >= len(order) || it.ID != ds.Item(order[i]).ID {
			return fmt.Errorf("ranking position %d: HTTP %q differs from the library", i+1, it.ID)
		}
	}
	return nil
}

func sameStables(ds *stablerank.Dataset, got []stableResp, want []stablerank.Stable) error {
	if len(got) != len(want) {
		return fmt.Errorf("HTTP has %d rankings, library %d", len(got), len(want))
	}
	for i := range got {
		if err := sameBits(fmt.Sprintf("ranking %d stability", i+1), got[i].Stability, want[i].Stability); err != nil {
			return err
		}
		if err := sameBits(fmt.Sprintf("ranking %d confidence error", i+1), got[i].ConfidenceError, want[i].ConfidenceError); err != nil {
			return err
		}
		if err := sameItems(ds, got[i].Items, want[i].Ranking.Order); err != nil {
			return fmt.Errorf("ranking %d: %w", i+1, err)
		}
	}
	return nil
}

// sameAnswer compares an HTTP answer with the library results for the op.
func sameAnswer(o *op, body []byte, ds *stablerank.Dataset, res []stablerank.Result) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("library: %w", r.Err)
		}
	}
	if o.kind == kGet {
		var got getVerifyResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		v := res[0].Verification
		if err := errors.Join(sameBits("stability", got.Stability, v.Stability),
			sameBits("confidence error", got.ConfidenceError, v.ConfidenceError)); err != nil {
			return err
		}
		if got.SampleCount != v.SampleCount {
			return fmt.Errorf("sample_count: HTTP %d, library %d", got.SampleCount, v.SampleCount)
		}
		return sameItems(ds, got.Ranking, stablerank.RankingOf(ds, o.get.weights).Order)
	}
	var got queryResp
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	for i, r := range got.Results {
		want := res[i]
		switch o.q.Queries[i].Op {
		case "verify":
			v := want.Verification
			if err := errors.Join(sameBits("stability", *r.Stability, v.Stability),
				sameBits("confidence error", *r.ConfidenceError, v.ConfidenceError)); err != nil {
				return fmt.Errorf("queries[%d]: %w", i, err)
			}
			if r.SampleCount != v.SampleCount || r.Adaptive != v.Adaptive {
				return fmt.Errorf("queries[%d]: sample_count/adaptive HTTP %d/%v, library %d/%v", i, r.SampleCount, r.Adaptive, v.SampleCount, v.Adaptive)
			}
		case "itemrank":
			d := want.RankDistribution
			if r.Samples != d.Samples || r.Best != d.Best || r.Worst != d.Worst || len(r.Counts) != len(d.Counts) {
				return fmt.Errorf("queries[%d]: itemrank distribution differs from the library", i)
			}
			for rk, n := range d.Counts {
				if r.Counts[strconv.Itoa(rk)] != n {
					return fmt.Errorf("queries[%d]: itemrank count at rank %d differs from the library", i, rk)
				}
			}
		default:
			if err := sameStables(ds, r.Rankings, want.Stables); err != nil {
				return fmt.Errorf("queries[%d]: %w", i, err)
			}
		}
	}
	return nil
}

func sameStream(body []byte, ds *stablerank.Dataset, want []stablerank.Stable) error {
	var got []stableResp
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var l struct {
			streamLine
			ConfidenceError float64 `json:"confidence_error"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return err
		}
		if !l.Done {
			got = append(got, stableResp{Rank: l.Rank, Stability: l.Stability, ConfidenceError: l.ConfidenceError, Items: l.Items})
		}
	}
	return sameStables(ds, got, want)
}

func sameDrift(ev driftEvent, d stablerank.Drift) error {
	if ev.ID != d.ID || ev.Op != d.Op.String() || ev.PoolRows != d.PoolRows || ev.RankRows != d.Shift.Rows ||
		ev.RankChanged != d.Shift.Changed || ev.MaxAbsRankShift != d.Shift.MaxAbsShift ||
		ev.RankImproved != d.Shift.Improved || ev.RankWorsened != d.Shift.Worsened {
		return fmt.Errorf("drift of %s differs from the library", d.ID)
	}
	return errors.Join(
		sameBits("mean_score_delta", ev.MeanScoreDelta, d.MeanScoreDelta),
		sameBits("max_abs_score_delta", ev.MaxAbsScoreDelta, d.MaxAbsScoreDelta),
		sameBits("mean_rank_before", ev.MeanRankBefore, d.Shift.MeanBefore),
		sameBits("mean_rank_after", ev.MeanRankAfter, d.Shift.MeanAfter),
		sameBits("mean_abs_rank_shift", ev.MeanAbsRankShift, d.Shift.MeanAbsShift))
}

type spanFunc func(name, parent string, t0, t1 time.Time)
type recFunc func(name string, v float64)

func attrsOf(ds *stablerank.Dataset) vecmat.Matrix {
	m := vecmat.New(ds.N(), ds.D())
	for i := 0; i < ds.N(); i++ {
		m.SetRow(i, ds.Attrs(i))
	}
	return m
}

// verifyKernels times the fused sweep's kernels for the op's rankings and
// checks their counts against the library's exact stabilities.
func verifyKernels(ctx context.Context, lib *library, k libKey, a *stablerank.Analyzer, ds *stablerank.Dataset, o *op, res []stablerank.Result, span spanFunc, rec recFunc) error {
	pool, err := lib.pool(ctx, k, a)
	if err != nil {
		return err
	}
	queries, err := libQueries(o, ds)
	if err != nil {
		return err
	}
	var mats []vecmat.Matrix
	var which []int
	t0 := time.Now()
	for i, q := range queries {
		if v, ok := q.(stablerank.VerifyQuery); ok {
			m, _, err := md.ConstraintMatrix(ds, v.Ranking)
			if err != nil {
				return err
			}
			mats = append(mats, m)
			which = append(which, i)
		}
	}
	t1 := time.Now()
	grouped, starts := vecmat.ConcatGroups(ds.D(), mats)
	counts := make([]int, len(mats))
	vecmat.CountInsideGrouped(grouped, starts, pool, 0, pool.Rows(), counts)
	t2 := time.Now()
	span("md.ConstraintMatrix", "library", t0, t1)
	span("vecmat.CountInsideGrouped", "library", t1, t2)
	rec("md.constraint", ms(t1.Sub(t0)))
	rec("vecmat.count_inside_grouped", ms(t2.Sub(t1)))
	if k.adaptive == 0 {
		for j, i := range which {
			if err := sameBits("kernel stability", float64(counts[j])/float64(pool.Rows()), res[i].Verification.Stability); err != nil {
				return err
			}
		}
	}
	for i, q := range queries {
		ir, ok := q.(stablerank.ItemRankQuery)
		if !ok {
			continue
		}
		attrs := attrsOf(ds)
		hist := map[int]int{}
		t0 := time.Now()
		for row := 0; row < ir.Samples; row++ {
			hist[mc.RankOf(attrs, geom.Vector(pool.Row(row)), ir.Item)]++
		}
		t1 := time.Now()
		span("mc.RankOf", "library", t0, t1)
		rec("mc.rank_of_ns_per_row", float64(t1.Sub(t0).Nanoseconds())/float64(ir.Samples))
		for rk, n := range res[i].RankDistribution.Counts {
			if hist[rk] != n {
				return fmt.Errorf("mc.RankOf histogram differs from the library at rank %d", rk)
			}
		}
	}
	return nil
}

// enumKernels times the enumeration producers to the op's depth: the md
// delayed arrangement over a pool clone, or the 2D ray sweep.
func enumKernels(ctx context.Context, lib *library, k libKey, a *stablerank.Analyzer, ds *stablerank.Dataset, depth int, twoD bool, span spanFunc, rec recFunc) error {
	if twoD {
		iv, err := geom.Interval2DOf(a.Region())
		if err != nil {
			return err
		}
		t0 := time.Now()
		e, err := twod.NewEnumerator(ds, iv)
		if err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			if _, err := e.Next(); errors.Is(err, twod.ErrExhausted) {
				break
			} else if err != nil {
				return err
			}
		}
		t1 := time.Now()
		span("twod.Enumerator", "library", t0, t1)
		rec("twod.enum", ms(t1.Sub(t0)))
		return nil
	}
	pool, err := lib.pool(ctx, k, a)
	if err != nil {
		return err
	}
	t0 := time.Now()
	clone := pool.Clone()
	t1 := time.Now()
	e, err := md.NewEngineMatrix(ds, a.Region(), clone, md.SamplePartition)
	if err != nil {
		return err
	}
	n := 0
	for ; n < depth; n++ {
		if _, err := e.Next(ctx); errors.Is(err, md.ErrExhausted) {
			break
		} else if err != nil {
			return err
		}
		if n == 0 {
			span("md.FirstNext", "library", t1, time.Now())
			rec("md.first_next", ms(time.Since(t1)))
		}
	}
	t2 := time.Now()
	span("vecmat.Clone", "library", t0, t1)
	span("md.Engine", "library", t1, t2)
	rec("md.pool_clone", ms(t1.Sub(t0)))
	rec("md.engine", ms(t2.Sub(t1)))
	rec("md.splits", float64(e.Splits()))
	rec("md.lp_calls", float64(e.LPCalls()))
	rec("md.hyperplanes", float64(e.HyperplaneCount()))
	return nil
}

// patchKernels times the drift pricing kernels for one PATCH and checks the
// rank shift against the library's drift.
func patchKernels(ctx context.Context, lib *library, k libKey, a *stablerank.Analyzer, old, nds *stablerank.Dataset, o *op, drifts []stablerank.Drift, span spanFunc, rec recFunc) error {
	pool, err := lib.pool(ctx, k, a)
	if err != nil {
		return err
	}
	index := func(ds *stablerank.Dataset, id string) int {
		for i := 0; i < ds.N(); i++ {
			if ds.Item(i).ID == id {
				return i
			}
		}
		return -1
	}
	// One normal per side of each delta: the displaced attrs and the new ones.
	var rows [][]float64
	for _, d := range o.deltas {
		if d.Op != "add" {
			rows = append(rows, old.Attrs(index(old, d.ID)))
		}
		if d.Op != "remove" {
			rows = append(rows, d.Attrs)
		}
	}
	normals, err := vecmat.FromRows(old.D(), rows)
	if err != nil {
		return err
	}
	const chunk = 4096
	out := make([]float64, chunk*len(rows))
	t0 := time.Now()
	for lo := 0; lo < pool.Rows(); lo += chunk {
		pool.EvalRowsBlocked(normals, lo, min(lo+chunk, pool.Rows()), out)
	}
	t1 := time.Now()
	oldAttrs, newAttrs := attrsOf(old), attrsOf(nds)
	for i, d := range o.deltas {
		sh, err := mc.RankShift(ctx, oldAttrs, newAttrs, index(old, d.ID), index(nds, d.ID), pool, lib.driftRows)
		if err != nil {
			return err
		}
		if sh != drifts[i].Shift {
			return fmt.Errorf("mc.RankShift of %s differs from the library", d.ID)
		}
	}
	t2 := time.Now()
	span("vecmat.EvalRowsBlocked", "library", t0, t1)
	span("mc.RankShift", "library", t1, t2)
	rec("vecmat.eval_rows_blocked", ms(t1.Sub(t0)))
	rec("mc.rank_shift", ms(t2.Sub(t1)))
	return nil
}

// coldRungs times the cold-key path at the workload's first key: a fresh
// analyzer's New + Warm, the pool draw alone, and the store's encode, put
// (with its fsync) and decode of that pool.
func (lr *ladderResult) coldRungs(ctx context.Context, b *bench, lib *library) error {
	k := keyOf(b.sc.warm[0])
	ds := lib.ds[k.ds]
	st, err := store.Open(filepath.Join(b.scratch, "ladder-store"))
	if err != nil {
		return err
	}
	defer st.Close()
	for i := 0; i < coldRepeats; i++ {
		t0 := time.Now()
		a, err := stablerank.New(ds, k.options()...)
		if err != nil {
			return err
		}
		if err := a.Warm(ctx); err != nil {
			return err
		}
		t1 := time.Now()
		pool, err := mc.BuildPoolMatrix(ctx, mc.ConeSamplers(a.Region(), 1), k.samples, ds.D(), runtime.NumCPU())
		if err != nil {
			return err
		}
		t2 := time.Now()
		snap := store.EncodeSnapshot(pool)
		record := snap
		if b.w.name == "churn" {
			if record, err = store.EncodeDataset(1, ds); err != nil {
				return err
			}
		}
		t3 := time.Now()
		ns := store.NSPools
		if b.w.name == "churn" {
			ns = store.NSDatasets
		}
		if err := st.Put(ns, fmt.Sprintf("ladder-%d", i), record); err != nil {
			return err
		}
		t4 := time.Now()
		back, err := store.DecodeSnapshot(snap)
		t5 := time.Now()
		if err != nil {
			return err
		}
		if back.Rows() != pool.Rows() {
			return errors.New("store.DecodeSnapshot returned another shape")
		}
		lr.add("core.pool_obtain", ms(t1.Sub(t0)))
		lr.add("mc.build_pool", ms(t2.Sub(t1)))
		lr.add("store.put", ms(t4.Sub(t3)))
		lr.add("store.decode", ms(t5.Sub(t4)))
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// report sets the ladder's per-layer metrics.
func (l *ladderResult) report(rep *report, b *bench) {
	n := func(name string) int { return len(l.samples[name]) }
	rep.set("http.self_p50_ms", median(l.samples["http.self"]), "ms", "HTTP − handler rung, %d ops", n("http.self"))
	rep.set("server.self_p50_ms", median(l.samples["server.self"]), "ms", "handler − library rung, %d uncached reads", n("server.self"))
	rep.set("server.write_self_p50_ms", median(l.samples["server.write_self"]), "ms", "handler − library delta rungs, %d PATCHes", n("server.write_self"))
	rep.set("core.do_p50_ms", median(l.samples["core.do"]), "ms", "Analyzer.Do / Stream on a warm analyzer, %d ops", n("core.do"))
	rep.set("core.do_allocs_per_req", mean(l.samples["core.do_allocs"]), "count", "runtime.MemStats around Do, %d ops", n("core.do_allocs"))
	rep.set("core.do_kb_per_req", mean(l.samples["core.do_kb"]), "KiB", "runtime.MemStats around Do, %d ops", n("core.do_kb"))
	rep.set("core.pool_obtain_ms", median(l.samples["core.pool_obtain"]), "ms", "New + Warm on a cold key, %d repeats", n("core.pool_obtain"))
	rep.set("core.sweeps_per_req", mean(l.samples["core.sweeps"]), "count", "change in Sweeps(), %d ops", n("core.sweeps"))
	adaptiveVerifies, rows := l.counts["adaptive.verifies"], l.counts["adaptive.pool_rows"]
	rep.set("core.adaptive.rows_saved_ratio", ratio(l.counts["adaptive.rows_saved"], adaptiveVerifies*rows), "ratio",
		"rows saved=%.0f over %.0f adaptive verifies × %.0f pool rows", l.counts["adaptive.rows_saved"], adaptiveVerifies, rows)
	rep.set("core.apply_delta_ms", median(l.samples["core.apply_delta"]), "ms", "Analyzer.ApplyDelta, %d PATCHes", n("core.apply_delta"))
	rep.set("core.last_drift_ms", median(l.samples["core.last_drift"]), "ms", "Analyzer.LastDrift at DriftSamples=%d, %d PATCHes", b.sc.driftSamples, n("core.last_drift"))
	rep.set("md.constraint_ms_per_req", median(l.samples["md.constraint"]), "ms", "ConstraintMatrix for the request's rankings, %d ops", n("md.constraint"))
	rep.set("md.pool_clone_ms", median(l.samples["md.pool_clone"]), "ms", "Matrix.Clone of the pool, %d enumerations", n("md.pool_clone"))
	rep.set("md.first_next_ms", median(l.samples["md.first_next"]), "ms", "NewEngineMatrix + first Next, %d enumerations", n("md.first_next"))
	rep.set("md.engine_ms", median(l.samples["md.engine"]), "ms", "NewEngineMatrix + Next to the op's depth, %d enumerations", n("md.engine"))
	rep.set("md.splits_per_req", mean(l.samples["md.splits"]), "count", "Engine.Splits, %d enumerations", n("md.splits"))
	rep.set("md.lp_calls_per_req", mean(l.samples["md.lp_calls"]), "count", "Engine.LPCalls, %d enumerations", n("md.lp_calls"))
	rep.set("md.hyperplanes", mean(l.samples["md.hyperplanes"]), "count", "Engine.HyperplaneCount, %d enumerations", n("md.hyperplanes"))
	rep.set("twod.enum_ms", median(l.samples["twod.enum"]), "ms", "NewEnumerator + Next to the op's depth, %d enumerations", n("twod.enum"))
	rep.set("mc.build_pool_ms", median(l.samples["mc.build_pool"]), "ms", "BuildPoolMatrix with nproc workers, %d repeats", n("mc.build_pool"))
	rep.set("mc.rank_of_ns_per_row", median(l.samples["mc.rank_of_ns_per_row"]), "ns", "RankOf over the itemrank prefix, %d ops", n("mc.rank_of_ns_per_row"))
	rep.set("mc.rank_shift_ms", median(l.samples["mc.rank_shift"]), "ms", "RankShift over DriftSamples rows, %d PATCHes", n("mc.rank_shift"))
	rep.set("vecmat.count_inside_grouped_ms", median(l.samples["vecmat.count_inside_grouped"]), "ms", "ConcatGroups + CountInsideGrouped over the pool, %d ops", n("vecmat.count_inside_grouped"))
	rep.set("vecmat.eval_rows_blocked_ms", median(l.samples["vecmat.eval_rows_blocked"]), "ms", "the PATCH's normals over the pool, %d PATCHes", n("vecmat.eval_rows_blocked"))
	rep.set("dataset.apply_deltas_ms", median(l.samples["dataset.apply_deltas"]), "ms", "stablerank.ApplyDeltas, %d PATCHes", n("dataset.apply_deltas"))
	rep.set("store.put_ms", median(l.samples["store.put"]), "ms", "FileStore.Put with fsync, %d repeats", n("store.put"))
	rep.set("store.decode_ms", median(l.samples["store.decode"]), "ms", "DecodeSnapshot at the pool shape, %d repeats", n("store.decode"))
}

// writeSpans writes the run's spans as JSON lines under <root>/.srbench/spans.
func writeSpans(root, workload string, seed int64, t *tracer) (string, error) {
	dir := filepath.Join(root, ".srbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
