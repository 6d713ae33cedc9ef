// Command srbench is the end-to-end benchmark of stablerankd. It runs the
// service as a child process on a loopback port, drives it from this one
// process with a seeded workload, checks every answer, and prints every
// metric by name with its unit; the last line of its output is one JSON
// object holding the metrics BENCHMARK.json lists for the mode.
//
//	bash srbench/run.sh --workload verify --seed 1 --seconds 20 --trace 0
//
// A run sets stablerankd up (exec, listen, upload the datasets, warm every
// key the timed phases use) and times two closed-loop phases on the seeded
// op stream: a latency phase, one client on one connection sending each op
// as soon as the last answer arrived, and a throughput phase, nproc clients
// on nproc connections (one beside a drift subscriber). Neither queues
// requests, so a slowdown of the shared machine lengthens the figures in
// proportion instead of pushing a queue toward saturation. Read percentiles
// are medians over consecutive windows of the latency phase, so a burst of
// interference moves one window rather than the run, and throughput is the
// completions per second of the whole throughput phase. /statsz and
// /proc/<pid> are scraped before, between and after the timed phases. The
// server then stops and stablerankd is set up several more times; setup_s is
// their median. With --trace 1 the run also repeats the latency phase on the
// next ops of the stream with every request's span recorded, which gives the
// tracing overhead, and replays a sample of the workload's ops down a ladder
// of entry points — loopback HTTP, the in-process server.Handler, the
// stablerank.Analyzer call, and the kernels under it — checks that every
// rung gives the same answer, and prints each layer's own cost.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stablerank"
)

// setupRuns is how many times a run sets stablerankd up after the timed
// phases; setup_s is the median.
const setupRuns = 9

// latencyShare is the share of --seconds spent in the latency phase; the
// throughput phase takes the rest.
const latencyShare = 0.5

func main() {
	var (
		name    = flag.String("workload", "", "workload: verify, enumerate, churn or regions")
		seed    = flag.Int64("seed", 1, "workload seed: the op stream derives from it")
		seconds = flag.Float64("seconds", 10, "length of the timed phases in seconds")
		traceOn = flag.Int("trace", 0, "1 runs the trace ladder and prints per-layer metrics")
		root    = flag.String("root", ".", "repository checkout holding BENCHMARK.json; scratch files go under <root>/.srbench")
		bin     = flag.String("server", "", "stablerankd binary")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *bin == "" || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: srbench -server <stablerankd> --workload <verify|enumerate|churn|regions> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	code, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *root, *bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srbench: %v\n", err)
	}
	os.Exit(code)
}

// bench is one run's state.
type bench struct {
	w       *workload
	sc      *scenario
	bin     string
	scratch string
	nextID  int
	conns   int // throughput-phase connections: nproc, or 1 beside a drift subscriber
	chk     *checker
	// current is each dataset's state after every op generated so far.
	current map[string]*stablerank.Dataset
}

// next returns the next op of the stream with its id assigned.
func (b *bench) next() *op {
	o := b.sc.next()
	o.id = b.nextID
	b.nextID++
	b.current[o.ds] = o.data
	return o
}

// setup starts stablerankd, uploads the datasets, connects the drift
// subscriber and runs the warm-up ops; it returns the time all that took.
func (b *bench) setup(ctx context.Context, k int) (*liveServer, *subscriber, time.Duration, error) {
	start := time.Now()
	dir := ""
	if b.w.persist {
		dir = filepath.Join(b.scratch, fmt.Sprintf("data%d", k))
	}
	srv, err := startServer(b.bin, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*liveServer, *subscriber, time.Duration, error) {
		_ = srv.stop()
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	c := newClient(srv.base, b.conns)
	defer c.close()
	for _, in := range b.sc.datasets {
		if err := c.upload(ctx, in); err != nil {
			return fail(err)
		}
	}
	var sub *subscriber
	if b.w.subscriber {
		if sub, err = subscribe(srv.base, b.sc.datasets[0].name); err != nil {
			return fail(err)
		}
	}
	var st answerStats
	for _, o := range b.sc.warm {
		if res := c.exec(ctx, o, b.chk, &st); res.err != nil {
			if sub != nil {
				sub.close()
			}
			return fail(fmt.Errorf("warm-up %s: %w", o.path, res.err))
		}
	}
	return srv, sub, time.Since(start), nil
}

// timeSetups sets stablerankd up setupRuns more times, stopping each server
// at once, and returns the set-up times in seconds.
func (b *bench) timeSetups(ctx context.Context) ([]float64, error) {
	var out []float64
	for k := 1; k <= setupRuns; k++ {
		s, sub, d, err := b.setup(ctx, k)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
		if sub != nil {
			sub.close()
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up server: %w", err)
		}
	}
	return out, nil
}

func run(w *workload, seed int64, total time.Duration, trace bool, root, bin string) (int, error) {
	ctx := context.Background()
	spec, err := readSpec(root)
	if err != nil {
		return 1, err
	}
	sc, err := w.build(seed)
	if err != nil {
		return 1, fmt.Errorf("building workload: %w", err)
	}
	scratch := filepath.Join(root, ".srbench", fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)
	nproc := runtime.NumCPU()
	b := &bench{w: w, sc: sc, bin: bin, scratch: scratch, conns: nproc, chk: newChecker(), current: map[string]*stablerank.Dataset{}}
	for _, in := range sc.datasets {
		b.current[in.name] = in.ds
	}
	if w.subscriber {
		// One request connection: the generator's model of the dataset and
		// the PATCH version check assume PATCHes and reads are answered in
		// the order they are sent.
		b.conns = 1
	}
	rep := newReport()

	// The first set-up serves the timed phases. Its time is printed but not
	// counted in setup_s: on a shared 2-core virtual machine a set-up that
	// follows idle seconds ran up to twice as slow as one that follows load,
	// so setup_s is timed once the timed phases have ended and their server
	// has stopped.
	srv, sub, first, err := b.setup(ctx, 0)
	if err != nil {
		return 1, err
	}
	c := newClient(srv.base, b.conns)
	defer c.close()
	r := &runner{c: c, chk: b.chk, sub: sub, patchSent: map[int64]time.Time{}, patchDeltas: map[int64]int{}}
	if sub != nil {
		r.lastVersion = sub.version
	}
	stopAll := func() {
		if r.sub != nil {
			r.sub.close()
		}
		_ = srv.stop()
	}
	// checkpoint checks the drift events of the PATCHes sent since the last
	// one, and subscribes afresh when renew is set; a failure counts as one
	// failed request.
	checkpoint := func(renew bool) []float64 {
		lat, err := r.driftCheckpoint(srv.base, b.sc.datasets[0].name, renew)
		if err != nil {
			r.fail(&op{class: "drift"}, err)
		}
		return lat
	}

	latDur := time.Duration(float64(total) * latencyShare)
	before, err := scrape(ctx, c, srv)
	if err != nil {
		stopAll()
		return 1, err
	}
	lat := r.closedLoop(ctx, b.next, latDur, 1)
	mid, err := scrape(ctx, c, srv)
	if err != nil {
		stopAll()
		return 1, err
	}
	driftLat := checkpoint(true)
	tput := r.closedLoop(ctx, b.next, total-latDur, b.conns)
	after, err := scrape(ctx, c, srv)
	if err != nil {
		stopAll()
		return 1, err
	}
	checkpoint(trace)

	// The traced run repeats the latency phase on the next ops with spans
	// on, then runs the ladder.
	var (
		tr     *tracer
		traced phase
		ladder *ladderResult
	)
	if trace {
		tr = &tracer{origin: time.Now()}
		r.trace = tr
		traced = r.closedLoop(ctx, b.next, latDur, 1)
		checkpoint(true)
		ladder, err = runLadder(ctx, b, r)
		if err != nil {
			r.fail(&op{class: "ladder"}, err)
		}
		checkpoint(false)
	}
	rss, err := readProc(srv.pid())
	stopAll()
	c.close()
	if err != nil {
		return 1, err
	}
	setups, err := b.timeSetups(ctx)
	if err != nil {
		return 1, err
	}

	endToEnd(rep, b, first.Seconds(), setups, lat, tput, driftLat, rss)
	perLayer(rep, b, lat, tput, before, mid, after)
	if ladder != nil {
		ladder.report(rep, b)
		traceOverhead(rep, lat, traced)
	}

	fmt.Printf("srbench %s seed=%d seconds=%g trace=%v nproc=%d conns=%d latency-phase=%d throughput-phase=%d\n",
		w.name, seed, total.Seconds(), trace, nproc, b.conns, len(lat.samples), len(tput.samples))
	rep.print(os.Stdout)
	printClasses(os.Stdout, lat)
	r.mu.Lock()
	attempted, failed, failures := r.attempted, r.failed, r.failures
	r.mu.Unlock()
	for _, f := range failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if tr != nil {
		if path, err := writeSpans(root, w.name, seed, tr); err != nil {
			return 1, err
		} else {
			fmt.Printf("  spans written to %s\n", path)
		}
	}
	line, err := rep.resultLine(spec, trace, attempted, failed)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1, fmt.Errorf("%d of %d requests failed", failed, attempted)
	}
	return 0, nil
}

// counters is one scrape of the server's counters and process figures.
type counters struct {
	stats map[string]float64
	proc  procSample
}

func scrape(ctx context.Context, c *client, srv *liveServer) (counters, error) {
	st, err := c.statsz(ctx)
	if err != nil {
		return counters{}, err
	}
	p, err := readProc(srv.pid())
	return counters{stats: st, proc: p}, err
}
