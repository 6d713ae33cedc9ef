package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"
)

// sample is one timed request.
type sample struct {
	o     *op
	lat   float64       // ms from send to the last byte; +Inf on failure
	first float64       // ms from send to the first stream ranking line
	done  time.Duration // completion, since the phase started
	bytes int
	ok    bool
}

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	dur     time.Duration
	st      answerStats
}

// runner executes ops against a live server and keeps the cross-request
// checks: PATCH versions and drift events.
type runner struct {
	c   *client
	chk *checker
	sub *subscriber // nil without a drift subscriber
	// trace, when set, records each request's HTTP span inside its timed
	// interval; it is set only for the traced phase.
	trace *tracer

	mu          sync.Mutex
	lastVersion int64               // guarded by mu
	patchSent   map[int64]time.Time // guarded by mu; PATCH send times by version
	patchDeltas map[int64]int       // guarded by mu
	failures    []string            // guarded by mu
	failed      int                 // guarded by mu
	attempted   int                 // guarded by mu
}

func (r *runner) fail(o *op, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("op %d (%s %s): %v", o.id, o.class, o.method, err))
	}
}

// do executes one op, timed from its send.
func (r *runner) do(ctx context.Context, o *op, st *answerStats) sample {
	var opSt answerStats
	sent := time.Now()
	res := r.c.exec(ctx, o, r.chk, &opSt)
	end := res.end
	if r.trace != nil {
		// Storing the span counts in the request's latency; the answer
		// check, which exec runs after stamping res.end, does not.
		t0 := time.Now()
		r.trace.add(o.id, "http", "", sent, res.end)
		end = end.Add(time.Since(t0))
	}
	s := sample{o: o, bytes: res.bytes, lat: math.Inf(1), first: math.Inf(1)}
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	err := res.err
	if err == nil && res.status != 200 {
		err = fmt.Errorf("status %d", res.status)
	}
	if err == nil && o.kind == kPatch {
		err = r.notePatch(o, opSt.patchVersion, sent)
	}
	if err != nil {
		r.fail(o, err)
		return s
	}
	s.ok = true
	s.lat = ms(end.Sub(sent))
	if !res.firstRow.IsZero() {
		s.first = ms(res.firstRow.Sub(sent))
	}
	st.add(&opSt)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// notePatch checks that a PATCH raised the dataset version by exactly one
// and remembers it for the drift check.
func (r *runner) notePatch(o *op, version int64, sent time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if version != r.lastVersion+1 {
		return fmt.Errorf("PATCH moved version %d to %d, want %d", r.lastVersion, version, r.lastVersion+1)
	}
	r.lastVersion = version
	r.patchSent[version] = sent
	r.patchDeltas[version] = len(o.deltas)
	return nil
}

// driftCheckpoint waits for the drift events of every PATCH sent since the
// last checkpoint, checks that each PATCH published one event per delta
// carrying its version, and returns their send-to-event latencies (ms). It
// closes the drift subscription and, when renew is set, opens a fresh one:
// stablerankd's default 30 s request timeout also ends a drift stream, so a
// subscriber that outlives one phase must reconnect, as any client would.
// A phase that lasts longer than that timeout fails the drift check.
func (r *runner) driftCheckpoint(base, dataset string, renew bool) ([]float64, error) {
	if r.sub == nil {
		return nil, nil
	}
	lat, err := r.checkDrift()
	r.sub.close()
	r.sub = nil
	if !renew {
		return lat, err
	}
	sub, serr := subscribe(base, dataset)
	if serr != nil {
		return lat, errors.Join(err, serr)
	}
	r.sub = sub
	r.mu.Lock()
	defer r.mu.Unlock()
	if sub.version != r.lastVersion {
		err = errors.Join(err, fmt.Errorf("drift stream opened at version %d, want %d", sub.version, r.lastVersion))
	}
	clear(r.patchSent)
	clear(r.patchDeltas)
	return lat, err
}

func (r *runner) checkDrift() ([]float64, error) {
	r.mu.Lock()
	want := maps.Clone(r.patchDeltas)
	sent := maps.Clone(r.patchSent)
	r.mu.Unlock()
	var lat []float64
	for _, v := range slices.Sorted(maps.Keys(want)) {
		n := want[v]
		evs, at, ok := r.sub.await(v, n, 10*time.Second)
		if !ok || len(evs) != n {
			return nil, fmt.Errorf("PATCH to version %d: %d drift events, want %d%s", v, len(evs), n, r.sub.ended())
		}
		for _, ev := range evs {
			if ev.Version != v {
				return nil, fmt.Errorf("drift event for version %d carries version %d", v, ev.Version)
			}
		}
		lat = append(lat, ms(at.Sub(sent[v])))
	}
	r.sub.mu.Lock()
	defer r.sub.mu.Unlock()
	if r.sub.readErr != nil {
		return nil, fmt.Errorf("drift stream: %w", r.sub.readErr)
	}
	for v := range r.sub.events {
		if _, ok := want[v]; !ok {
			return nil, fmt.Errorf("drift events for version %d, which no PATCH produced", v)
		}
	}
	return lat, nil
}

// closedLoop runs conns clients that each send the next op of the stream
// as soon as their previous one completes, for dur.
func (r *runner) closedLoop(ctx context.Context, next func() *op, dur time.Duration, conns int) phase {
	var mu sync.Mutex
	var res []sample
	sts := make([]answerStats, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				o := next()
				mu.Unlock()
				s := r.do(ctx, o, &sts[w])
				s.done = time.Since(start)
				mu.Lock()
				res = append(res, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	p := phase{samples: res, dur: dur}
	for i := range sts {
		p.st.add(&sts[i])
	}
	return p
}

func (a *answerStats) add(b *answerStats) {
	a.verifies += b.verifies
	a.rows += b.rows
	a.sweepBytes += b.sweepBytes
	a.rankings += b.rankings
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

// span is one rung of one op: its name, the rung above it, and its interval
// in nanoseconds since the run started.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (t *tracer) add(opID int, name, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: opID, Name: name, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}
