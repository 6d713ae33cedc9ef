package stablerank

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
)

// memoSamples keeps the memo's bound (pool rows x d x 8 bytes) at 9 rankings
// of memoDS's 12 items in 2D and 16 at d = 4, well short of their 22 and 61
// rankings, so the histories below run past it.
const memoSamples = 64

// memoDS returns n items with small-integer attributes, so stabilities tie
// and the order of tied rankings matters; the last attribute falls as the
// first rises, so few items dominate one another and enumerations run deep.
func memoDS(rng *rand.Rand, n, d int) *dataset.Dataset {
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		attrs := make([]float64, d)
		for j := range attrs {
			attrs[j] = float64(rng.Intn(16))
		}
		attrs[d-1] = 15 - attrs[0] + float64(rng.Intn(3))
		ds.MustAdd(fmt.Sprintf("i%d", i), attrs...)
	}
	return ds
}

// memoAnalyzer builds an analyzer over ds; goroutines call it, so it
// panics rather than failing the test on an error the valid options rule
// out.
func memoAnalyzer(ds *dataset.Dataset, samples, workers int, seed int64) *Analyzer {
	a, err := New(ds, WithSampleCount(samples), WithSeed(seed), WithWorkers(workers))
	if err != nil {
		panic(err)
	}
	return a
}

// pollCtx is a context whose Err reports cancellation on exactly its k-th
// call (never when k is 0), so a cursor can be stopped at any of its polls
// and resumed with the same context. It is not safe for concurrent use.
type pollCtx struct {
	context.Context
	polls, k int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls == c.k {
		return context.Canceled
	}
	return nil
}

// histOp is one request of a history: a Do batch, a Stream broken off
// after n rows, a cursor read to depth n while cancelled on its poll-th
// ctx poll and resumed, or a merged top-h.
type histOp struct {
	kind         string
	queries      []Query
	n, poll      int
	h, tau, scan int
}

// key names the op's answer. The poll is left out: a cancelled and resumed
// cursor must answer like an uncancelled one.
func (op histOp) key() string {
	return fmt.Sprintf("%s %#v %d %d %d %d", op.kind, op.queries, op.n, op.h, op.tau, op.scan)
}

// run asks a the op's question and returns the answer.
func (op histOp) run(a *Analyzer) (any, error) {
	switch op.kind {
	case "do":
		return a.Do(ctx, op.queries...)
	case "stream":
		var rows []Stable
		for res, err := range a.Stream(ctx, op.queries[0]) {
			if err != nil {
				return nil, err
			}
			rows = append(rows, *res.Stable)
			if len(rows) == op.n {
				break
			}
		}
		return rows, nil
	case "cursor":
		e, err := a.Enumerator(ctx)
		if err != nil {
			return nil, err
		}
		pc := &pollCtx{Context: ctx, k: op.poll}
		var rows []Stable
		for len(rows) < op.n {
			s, err := e.Next(pc)
			switch {
			case errors.Is(err, context.Canceled) && pc.polls == pc.k:
				continue
			case errors.Is(err, ErrExhausted):
				return rows, nil
			case err != nil:
				return nil, err
			}
			rows = append(rows, s)
		}
		return rows, nil
	case "merged":
		return a.TopHMerged(ctx, op.h, op.tau, op.scan)
	}
	return nil, fmt.Errorf("unknown op kind %q", op.kind)
}

// randomOp draws a request whose depths reach up to deep.
func randomOp(rng *rand.Rand, deep int) histOp {
	depth := func() int { return 1 + rng.Intn(deep) }
	query := func() Query {
		switch rng.Intn(3) {
		case 0:
			return TopHQuery{H: depth()}
		case 1:
			return AboveQuery{Threshold: []float64{0, 1.0 / 64, 2.0 / 64, 0.1}[rng.Intn(4)]}
		default:
			return EnumerateQuery{Limit: depth() - 1} // 0 enumerates everything
		}
	}
	switch rng.Intn(4) {
	case 0:
		qs := make([]Query, 1+rng.Intn(3))
		for i := range qs {
			qs[i] = query()
		}
		return histOp{kind: "do", queries: qs}
	case 1:
		return histOp{kind: "stream", queries: []Query{query()}, n: depth()}
	case 2:
		return histOp{kind: "cursor", n: depth(), poll: 1 + rng.Intn(4*deep)}
	default:
		return histOp{kind: "merged", h: rng.Intn(5), tau: rng.Intn(4), scan: rng.Intn(deep)}
	}
}

// freshAnswers memoizes each op's answer on a fresh analyzer.
type freshAnswers struct {
	fresh func() *Analyzer
	mu    sync.Mutex
	m     map[string]any
}

func (f *freshAnswers) get(op histOp) (any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.m[op.key()]; ok {
		return v, nil
	}
	op.poll = 0
	v, err := op.run(f.fresh())
	if err != nil {
		return nil, err
	}
	if f.m == nil {
		f.m = make(map[string]any)
	}
	f.m[op.key()] = v
	return v, nil
}

// checkOp runs op on a and on a fresh analyzer and reports a difference.
func checkOp(a *Analyzer, fresh *freshAnswers, op histOp) error {
	got, err := op.run(a)
	if err != nil {
		return fmt.Errorf("%s: %w", op.key(), err)
	}
	want, err := fresh.get(op)
	if err != nil {
		return fmt.Errorf("%s on a fresh analyzer: %w", op.key(), err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s (poll %d): answer differs from a fresh analyzer's", op.key(), op.poll)
	}
	return nil
}

// TestEnumMemoMatchesFresh: eight goroutines run random request histories
// on one analyzer — Do batches of top-h, above and enumerate queries,
// streams broken off early, cursors cancelled at a random poll and resumed,
// merged top-h — with depths past the memo's bound, and every answer equals
// the same request on a fresh analyzer, for d = 2 and 4 and worker counts
// 1, 2 and 8. Run under -race -count=10.
func TestEnumMemoMatchesFresh(t *testing.T) {
	for _, d := range []int{2, 4} {
		ds := memoDS(rand.New(rand.NewSource(1)), 12, d)
		boundRows := memoSamples * d / (12 + d)
		for _, workers := range []int{1, 2, 8} {
			a := memoAnalyzer(ds, memoSamples, workers, 3)
			fresh := &freshAnswers{fresh: func() *Analyzer { return memoAnalyzer(ds, memoSamples, 1, 3) }}
			const goroutines, steps = 8, 12
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100*d + 10*workers + g)))
					for i := 0; i < steps; i++ {
						if err := checkOp(a, fresh, randomOp(rng, 3*boundRows)); err != nil {
							t.Errorf("d=%d workers=%d goroutine %d step %d: %v", d, workers, g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if m := a.memo.Load(); m == nil || len(m.stables) != boundRows || m.done {
				t.Errorf("d=%d workers=%d: memo %+v, want the first %d rankings", d, workers, m, boundRows)
			}
		}
	}
}

// scribble overwrites every ranking and weight vector in ss.
func scribble(ss []Stable) {
	for i := range ss {
		for j := range ss[i].Ranking.Order {
			ss[i].Ranking.Order[j] = -1
		}
		for j := range ss[i].Weights {
			ss[i].Weights[j] = 42
		}
	}
}

// TestEnumMemoIsolation: a caller that overwrites the rankings and weights
// it got — from Do, Stream, a cursor or TopHMerged, replayed from the memo
// or produced live — changes no later answer.
func TestEnumMemoIsolation(t *testing.T) {
	for _, d := range []int{2, 4} {
		ds := memoDS(rand.New(rand.NewSource(1)), 12, d)
		deep := 2 * memoSamples * d / (12 + d)
		want, err := topH(ctx, memoAnalyzer(ds, memoSamples, 1, 3), deep)
		if err != nil {
			t.Fatal(err)
		}
		a := memoAnalyzer(ds, memoSamples, 1, 3)
		for round := 0; round < 2; round++ { // live, then replayed
			res, err := a.Do(ctx, TopHQuery{H: deep}, EnumerateQuery{Limit: deep})
			if err != nil {
				t.Fatal(err)
			}
			scribble(res[0].Stables)
			for r, err := range a.Stream(ctx, TopHQuery{H: deep}) {
				if err != nil {
					t.Fatal(err)
				}
				scribble([]Stable{*r.Stable})
			}
			e, err := a.Enumerator(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < deep; i++ {
				s, err := e.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				scribble([]Stable{s})
			}
			merged, err := a.TopHMerged(ctx, 0, 0, deep)
			if err != nil {
				t.Fatal(err)
			}
			for i := range merged {
				scribble([]Stable{merged[i].Representative})
			}
			got, err := topH(ctx, a, deep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d round %d: answers changed after callers overwrote their results", d, round)
			}
		}
	}
}

// TestEnumMemoApplyDelta: an analyzer derived by ApplyDelta shares its
// parent's pool but starts with an empty memo, and answers like a fresh
// analyzer on the new dataset; the parent keeps answering like a fresh
// analyzer on the old one.
func TestEnumMemoApplyDelta(t *testing.T) {
	for _, d := range []int{2, 4} {
		ds := memoDS(rand.New(rand.NewSource(1)), 12, d)
		deep := 2 * memoSamples * d / (12 + d)
		a := memoAnalyzer(ds, memoSamples, 2, 3)
		before, err := topH(ctx, a, deep)
		if err != nil {
			t.Fatal(err)
		}
		attrs := make(geom.Vector, d)
		for j := range attrs {
			attrs[j] = float64(3 + j)
		}
		b, err := a.ApplyDelta(ctx,
			Delta{Op: AttrUpdate, ID: "i0", Attrs: attrs},
			Delta{Op: ItemRemove, ID: "i5"},
			Delta{Op: ItemAdd, ID: "x", Attrs: attrs.Scale(2)},
		)
		if err != nil {
			t.Fatal(err)
		}
		if b.memo.Load() != nil {
			t.Fatalf("d=%d: ApplyDelta carried the memo over", d)
		}
		for _, c := range []struct {
			a  *Analyzer
			ds *dataset.Dataset
		}{{b, b.Dataset()}, {a, ds}} {
			got, err := topH(ctx, c.a, deep)
			if err != nil {
				t.Fatal(err)
			}
			want, err := topH(ctx, memoAnalyzer(c.ds, memoSamples, 1, 3), deep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("d=%d dataset of %d items: answer differs from a fresh analyzer's", d, c.ds.N())
			}
		}
		if reflect.DeepEqual(before, mustTopH(t, b, deep)) {
			t.Errorf("d=%d: the delta left the enumeration unchanged; the test shows nothing", d)
		}
	}
}

func mustTopH(t *testing.T, a *Analyzer, h int) []Stable {
	t.Helper()
	s, err := topH(ctx, a, h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEnumMemoBound: after an enumeration deeper than the bound the memo
// holds the longest prefix whose bytes fit in the pool's size, and
// PoolMemoryBytes counts it (in 2D, where no pool is drawn, it is all there
// is). A cursor replays the memo without building an engine, honours a
// cancelled context while replaying and keeps no rows past the bound; an
// enumeration that ends within the bound is memoized whole, and later
// cursors exhaust it without an engine.
func TestEnumMemoBound(t *testing.T) {
	for _, d := range []int{2, 4} {
		ds := memoDS(rand.New(rand.NewSource(1)), 12, d)
		a := memoAnalyzer(ds, memoSamples, 1, 3)
		all := mustTopH(t, a, 1<<20)
		row := stableBytes(all[0])
		rows := int(a.memoBound() / row)
		if len(all) <= rows {
			t.Fatalf("d=%d: %d rankings fit in the bound of %d; the test shows nothing", d, len(all), rows)
		}
		m := a.memo.Load()
		if len(m.stables) != rows || m.bytes != int64(rows)*row || m.done {
			t.Fatalf("d=%d: memo of %d rankings, %d bytes, done %v; want %d rankings, %d bytes", d, len(m.stables), m.bytes, m.done, rows, int64(rows)*row)
		}
		var pool int64
		if d > 2 {
			pool = a.pool.Load().samples.Bytes()
		}
		if m.bytes > a.memoBound() || (d > 2 && m.bytes > pool) {
			t.Fatalf("d=%d: memo holds %d bytes, pool %d, bound %d", d, m.bytes, pool, a.memoBound())
		}
		if got := a.PoolMemoryBytes(); got != pool+m.bytes {
			t.Fatalf("d=%d: PoolMemoryBytes %d, want pool %d + memo %d", d, got, pool, m.bytes)
		}
		e, err := a.Enumerator(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := e.Next(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("d=%d: replaying cursor under a cancelled context returned %v", d, err)
		}
		for i := 0; i < len(all); i++ {
			s, err := e.Next(ctx)
			if err != nil || !reflect.DeepEqual(s, all[i]) {
				t.Fatalf("d=%d: cursor row %d = %v, differs from the enumeration", d, i, err)
			}
			if i < rows && (e.mdE != nil || e.twoD != nil) {
				t.Fatalf("d=%d: cursor built an engine at row %d, inside the memo", d, i)
			}
		}
		if e.keeping || e.kept != nil {
			t.Fatalf("d=%d: cursor still keeps %d rows past the bound", d, len(e.kept))
		}

		// Four items have at most 24 rankings, which fit in the bound.
		whole := memoAnalyzer(memoDS(rand.New(rand.NewSource(1)), 4, d), memoSamples, 1, 3)
		all = mustTopH(t, whole, 1<<20)
		if m := whole.memo.Load(); len(m.stables) != len(all) || !m.done {
			t.Fatalf("d=%d: memo of %d rankings, done %v; want all %d, done", d, len(m.stables), m.done, len(all))
		}
		e, err = whole.Enumerator(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			_, err := e.Next(ctx)
			if errors.Is(err, ErrExhausted) {
				if i != len(all) {
					t.Fatalf("d=%d: cursor exhausted after %d rankings, want %d", d, i, len(all))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if e.mdE != nil || e.twoD != nil {
			t.Fatalf("d=%d: cursor built an engine to exhaust a complete memo", d)
		}
	}
}

// nextN reads n rankings from e.
func nextN(t *testing.T, e *Enumerator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnumMemoPublishing: a cursor that falls behind another publishes
// nothing shorter than the memo it finds, and two cursors extending one
// memo at once append to separate arrays (run under -race).
func TestEnumMemoPublishing(t *testing.T) {
	a := memoAnalyzer(memoDS(rand.New(rand.NewSource(1)), 12, 4), memoSamples, 1, 3)
	slow, err := a.Enumerator(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nextN(t, slow, 3) // the memo's 3 rankings sit in an array of capacity 4
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		e, err := a.Enumerator(ctx)
		close(started)
		for i := 0; err == nil && i < 4; i++ {
			_, err = e.Next(ctx)
		}
		errc <- err
	}()
	<-started
	nextN(t, slow, 1)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	mustTopH(t, a, 10)
	nextN(t, slow, 1)
	if n := len(a.memo.Load().stables); n != 10 {
		t.Fatalf("memo holds %d rankings after a 10-deep enumeration, want 10", n)
	}
}

// byteSource hands out the fuzz input a byte at a time, then zeros.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzEnumHistory decodes a small dataset — d in {2, 3, 4}, at most 12
// items, small-integer attributes so stabilities tie — and a history of
// steps: enumerate to depth k, above s, stream and break, a cursor
// cancelled at poll k and resumed, ApplyDelta, and an Over view of another
// decoded dataset of the same dimension. After every step the analyzer's
// answer must equal a fresh analyzer's on the same dataset.
func FuzzEnumHistory(f *testing.F) {
	f.Add([]byte{2, 11, 20, 7, 1, 3, 5, 0, 2, 4, 6, 1, 3, 5, 7, 0, 8, 2, 9, 3, 5, 1, 0, 2, 40, 3, 9, 17, 4, 0, 3, 6, 2, 5})
	f.Add([]byte{4, 11, 10, 2, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8, 4, 1, 9, 7, 1, 6, 9, 3, 9, 9, 3, 7, 5, 1, 0, 5, 8, 2, 0, 9, 7, 4, 9, 4, 4, 5, 9, 2, 3, 0, 7, 8, 1, 6, 4, 0, 6, 2, 8, 6, 2, 0, 8, 9, 9, 8, 6, 2, 8, 0, 3, 4, 8, 2, 5, 3, 4, 2, 1, 1, 7, 0, 6, 7, 9})
	f.Add([]byte{3, 7, 0, 1, 2, 3, 4, 5, 0, 5, 4, 3, 2, 1, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 0, 3, 30, 20, 4, 2, 1, 2, 1})
	// d = 3, six items; an Over view of five other items, then enumerate,
	// ApplyDelta and another Over view.
	f.Add([]byte{1, 5, 20, 3, 1, 0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0, 1, 3, 5, 0, 2, 4,
		5, 4, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 1, 2, 3, 3, 0, 10,
		4, 2, 2, 3, 4, 5, 2, 5, 6, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		d := 2 + src.next()%3
		n := 1 + src.next()%12
		samples := 16 + 2*src.next()
		seed := int64(src.next())
		workers := 1 + src.next()%3
		a := memoAnalyzer(fuzzDS(&src, d, n), samples, workers, seed)
		for step := 0; step < 8 && len(src) > 0; step++ {
			var op histOp
			switch src.next() % 6 {
			case 0:
				op = histOp{kind: "do", queries: []Query{EnumerateQuery{Limit: src.next()}}}
			case 1:
				op = histOp{kind: "do", queries: []Query{AboveQuery{Threshold: float64(src.next()) / 512}}}
			case 2:
				op = histOp{kind: "stream", queries: []Query{EnumerateQuery{}}, n: 1 + src.next()}
			case 3:
				op = histOp{kind: "cursor", n: 1 + src.next(), poll: 1 + src.next()}
			case 4:
				var err error
				if a, err = a.ApplyDelta(ctx, fuzzDelta(&src, a.Dataset(), step)); err != nil {
					t.Fatal(err)
				}
				op = histOp{kind: "do", queries: []Query{TopHQuery{H: 1 + src.next()}}}
			default:
				var err error
				if a, err = a.Over(fuzzDS(&src, d, 1+src.next()%12)); err != nil {
					t.Fatal(err)
				}
				op = histOp{kind: "do", queries: []Query{TopHQuery{H: 1 + src.next()}}}
			}
			cur := a.Dataset()
			fresh := &freshAnswers{fresh: func() *Analyzer { return memoAnalyzer(cur, samples, 1, seed) }}
			if err := checkOp(a, fresh, op); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// fuzzDS decodes an n-item dataset of dimension d named i0..i{n-1}.
func fuzzDS(src *byteSource, d, n int) *dataset.Dataset {
	ds := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		ds.MustAdd(fmt.Sprintf("i%d", i), fuzzAttrs(src, d)...)
	}
	return ds
}

func fuzzAttrs(src *byteSource, d int) []float64 {
	attrs := make([]float64, d)
	for j := range attrs {
		attrs[j] = float64(src.next() % 6)
	}
	return attrs
}

// fuzzDelta decodes one attribute update, item addition or (with more than
// one item left) removal against ds.
func fuzzDelta(src *byteSource, ds *dataset.Dataset, step int) Delta {
	id := ds.Item(src.next() % ds.N()).ID
	switch op := src.next() % 3; {
	case op == 0 && ds.N() > 1:
		return Delta{Op: ItemRemove, ID: id}
	case op == 1:
		return Delta{Op: ItemAdd, ID: fmt.Sprintf("x%d", step), Attrs: fuzzAttrs(src, ds.D())}
	default:
		return Delta{Op: AttrUpdate, ID: id, Attrs: fuzzAttrs(src, ds.D())}
	}
}
