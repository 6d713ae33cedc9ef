package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// opStream renders the first n ops of a workload's stream as wire bytes.
func opStream(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	sc, err := w.build(seed)
	if err != nil {
		t.Fatalf("%s: build: %v", w.name, err)
	}
	var b bytes.Buffer
	for _, o := range sc.warm {
		b.Write(o.wire())
	}
	for i := 0; i < n; i++ {
		b.Write(sc.next().wire())
	}
	for _, in := range sc.datasets {
		b.Write(in.csv)
	}
	return b.Bytes()
}

func TestOpStreamFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := opStream(t, w, 3, 200), opStream(t, w, 3, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 3 sends different request bytes on two builds", w.name)
		}
		if bytes.Equal(a, opStream(t, w, 4, 200)) {
			t.Errorf("%s: seeds 3 and 4 send the same request bytes", w.name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // NaN: refused
	}{
		{199, 95, math.NaN()},
		{200, 95, 190},
		{999, 99, math.NaN()},
		{1000, 99, 990},
		{1, 50, 1},
		{19, 50, 10},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if math.IsNaN(tc.want) {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want a refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
	// A failed request is +Inf: it counts as the slowest answer.
	s := xs(200)
	for i := 0; i < 11; i++ {
		s[i] = math.Inf(1)
	}
	if got, _ := percentile(s, 95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 11 failures in 200 = %v, want +Inf", got)
	}
}

// The recorded responses bracket, on a stablerankd with -data: two
// verifies of a new key and one repeat, a three-delta PATCH with a drift
// subscriber, two verifies after it, and one query on a new region.
func TestStatsDiffOnRecordedResponses(t *testing.T) {
	read := func(name string) map[string]float64 {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := flatStats(raw)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	d := statsDiff(read("statsz_before.json"), read("statsz_after.json"))
	for key, want := range map[string]float64{
		"cache.hits":                    3,
		"cache.misses":                  2,
		"analyzers.builds":              1,
		"analyzers.evictions":           0,
		"analyzers.pool_bytes_total":    720089, // a gauge: the later level
		"deltas.applied":                3,
		"deltas.spliced":                3,
		"deltas.analyzers_migrated":     1,
		"deltas.cache_invalidated":      2,
		"deltas.drift_events":           3,
		"store.snapshots.hits":          0,
		"store.snapshots.misses":        1,
		"store.snapshots.bytes_written": 480032,
		"streamed_rows":                 0,
	} {
		if got, ok := d[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if _, ok := d["analyzers.resident"]; ok {
		t.Error("the resident-analyzer list should not flatten to a number")
	}
}

func TestMetricNamesAndSpec(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
	}

	// A run's metrics, from synthetic phases, cover every listed name in
	// both modes.
	sc, err := buildVerify(1)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: workloads[0], sc: sc, conns: 2}
	var lat, tput phase
	for i := 0; i < 400; i++ {
		s := sample{o: sc.next(), ok: true, lat: float64(i), bytes: 1000, done: time.Duration(i) * 3 * time.Second / 400}
		lat.samples = append(lat.samples, s)
		tput.samples = append(tput.samples, s)
	}
	lat.dur, tput.dur = 3*time.Second, 3*time.Second
	before := counters{stats: map[string]float64{}, proc: procSample{cpuTicks: 100}}
	after := counters{stats: map[string]float64{"analyzers.pool_bytes_total": mib}, proc: procSample{cpuTicks: 900, hwmKiB: 4096}}
	lr := &ladderResult{samples: map[string][]float64{}, counts: map[string]float64{}}
	for _, k := range []string{"http.self", "server.self", "core.do", "core.do_allocs", "core.do_kb", "core.pool_obtain",
		"core.sweeps", "mc.build_pool", "store.put", "store.decode"} {
		lr.add(k, 1)
	}
	rep := newReport()
	endToEnd(rep, b, 1, []float64{1, 2, 3}, lat, tput, nil, after.proc)
	perLayer(rep, b, lat, tput, before, before, after)
	lr.report(rep, b)
	traceOverhead(rep, lat, lat)
	for _, trace := range []bool{false, true} {
		if _, err := rep.resultLine(spec, trace, 800, 0); err != nil {
			t.Errorf("trace=%v: %v", trace, err)
		}
	}
	for _, m := range rep.list {
		if !metricName.MatchString(m.name) {
			t.Errorf("reported metric name %q does not match %s", m.name, metricName)
		}
	}
}
