package main

import (
	"fmt"
	"math"
	"strings"
)

const mib = 1 << 20

// ratio returns a/b, or NaN when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func pct(xs []float64, p float64) float64 {
	v, err := percentile(append([]float64(nil), xs...), p)
	if err != nil {
		return math.NaN()
	}
	return v
}

// windowBeyond is how many reads each window must hold beyond the
// percentile it reports. Fewer pool the phase into one window: a median over
// windows that each see a dozen tail samples spreads more from run to run
// than the pooled percentile.
const windowBeyond = 50

// readPercentile returns the p-th percentile of the phase's read latencies
// as the median over consecutive windows that each hold windowBeyond reads
// beyond it, with the read count and each window's value.
func readPercentile(samples []sample, p float64) (v float64, reads int, windows []float64) {
	var xs []float64
	for _, s := range samples {
		if s.o.isRead() {
			xs = append(xs, s.lat)
		}
	}
	minPer := int(math.Ceil(windowBeyond / (1 - p/100)))
	v, windows = windowed(xs, minPer, func(w []float64) float64 { return pct(w, p) })
	return v, len(xs), windows
}

// fmtWindows renders per-window values for a metric's base text.
func fmtWindows(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

// endToEnd sets the metrics a user of stablerankd sees, from the untraced
// latency and throughput phases.
func endToEnd(rep *report, b *bench, first float64, setups []float64, lat, tput phase, driftLat []float64, rss procSample) {
	rep.set("setup_s", median(append([]float64(nil), setups...)), "s", "median of set-ups %s after the timed phases; the first set-up took %.4g", fmtWindows(setups), first)

	var writes, firstRows []float64
	for _, s := range lat.samples {
		if s.o.kind == kPatch {
			writes = append(writes, s.lat)
		}
		if s.o.kind == kStream {
			firstRows = append(firstRows, s.first)
		}
	}
	for _, p := range []float64{50, 95, 99} {
		v, n, win := readPercentile(lat.samples, p)
		rep.set(fmt.Sprintf("read_p%g_ms", p), v, "ms", "%d reads on one connection; median of windows %s", n, fmtWindows(win))
	}
	if len(writes) > 0 {
		rep.set("write_p50_ms", pct(writes, 50), "ms", "%d PATCHes on one connection", len(writes))
		rep.set("write_p95_ms", pct(writes, 95), "ms", "%d PATCHes on one connection", len(writes))
	}
	if len(driftLat) > 0 {
		rep.set("drift_p50_ms", pct(driftLat, 50), "ms", "%d PATCHes: send → drift event read", len(driftLat))
	}
	if len(firstRows) > 0 {
		rep.set("first_row_p50_ms", pct(firstRows, 50), "ms", "%d streams", len(firstRows))
	}
	// Throughput counts the whole phase, not a median over windows: the op
	// mix is exact only over whole passes of its deck, and a window holds a
	// few of churn's 110 ms PATCHes, so window figures vary with how many
	// fell in each.
	completed := 0
	for _, s := range tput.samples {
		if s.ok && s.done <= tput.dur {
			completed++
		}
	}
	rep.set("throughput_rps", float64(completed)/tput.dur.Seconds(), "req/s",
		"%d completed in %.1f s on %d connections", completed, tput.dur.Seconds(), b.conns)
	attempted := len(lat.samples) + len(tput.samples)
	failed := 0
	for _, p := range []phase{lat, tput} {
		for _, s := range p.samples {
			if !s.ok {
				failed++
			}
		}
	}
	rep.set("failed_ratio", float64(failed)/float64(attempted), "ratio", "%d of %d", failed, attempted)
	rep.set("peak_rss_mb", float64(rss.hwmKiB)/1024, "MiB", "stablerankd VmHWM")
}

// perLayer sets the layer metrics that come from the timed phases: process
// CPU and /statsz counter differences. The ladder adds the rest.
func perLayer(rep *report, b *bench, lat, tput phase, before, mid, after counters) {
	reqs := float64(len(lat.samples) + len(tput.samples))
	cpu := func(a, b counters, n int) float64 {
		return float64(b.proc.cpuTicks-a.proc.cpuTicks) * 1000 / clockTicks / float64(n)
	}
	rep.set("proc.cpu_ms_per_req", cpu(before, after, int(reqs)), "ms", "%.0f requests; latency phase %.3g, throughput phase %.3g",
		reqs, cpu(before, mid, len(lat.samples)), cpu(mid, after, len(tput.samples)))

	bytes, patches := 0.0, 0.0
	for _, p := range []phase{lat, tput} {
		for _, s := range p.samples {
			bytes += float64(s.bytes)
			if s.o.kind == kPatch {
				patches++
			}
		}
	}
	rep.set("http.resp_kb_per_req", bytes/1024/reqs, "KiB", "%.0f bytes", bytes)

	d := statsDiff(before.stats, after.stats)
	hits, misses := d["cache.hits"], d["cache.misses"]
	rep.set("server.cache.hit_ratio", ratio(hits, hits+misses), "ratio", "hits=%.0f misses=%.0f", hits, misses)
	rep.set("server.cache.invalidated_per_write", ratio(d["deltas.cache_invalidated"], patches), "count",
		"invalidated=%.0f PATCHes=%.0f", d["deltas.cache_invalidated"], patches)
	rep.set("server.analyzers.builds_per_1k_req", d["analyzers.builds"]*1000/reqs, "count", "builds=%.0f requests=%.0f", d["analyzers.builds"], reqs)
	rep.set("server.analyzers.evictions_per_1k_req", d["analyzers.evictions"]*1000/reqs, "count", "evictions=%.0f requests=%.0f", d["analyzers.evictions"], reqs)
	sp, rs := d["deltas.spliced"], d["deltas.resorted"]
	rep.set("server.deltas.splice_ratio", ratio(sp, sp+rs), "ratio", "spliced=%.0f resorted=%.0f", sp, rs)
	rep.set("server.deltas.dropped_per_write", ratio(d["deltas.analyzers_dropped"], patches), "count",
		"dropped=%.0f PATCHes=%.0f", d["deltas.analyzers_dropped"], patches)
	rep.set("server.drift.dropped_ratio", ratio(d["deltas.drift_dropped"], d["deltas.drift_events"]), "ratio",
		"dropped=%.0f events=%.0f", d["deltas.drift_dropped"], d["deltas.drift_events"])
	rep.set("server.pool_mb", d["analyzers.pool_bytes_total"]/mib, "MiB", "resident pools after the timed phases")
	sh, sm := d["store.snapshots.hits"], d["store.snapshots.misses"]
	rep.set("store.snapshot.hit_ratio", ratio(sh, sh+sm), "ratio", "hits=%.0f misses=%.0f", sh, sm)
	rep.set("store.snapshot.written_mb", d["store.snapshots.bytes_written"]/mib, "MiB", "writes=%.0f", d["store.snapshots.writes"])

	st := lat.st
	st.add(&tput.st)
	rep.set("plan.rows_per_verify", ratio(float64(st.rows), float64(st.verifies)), "rows", "%d verifies", st.verifies)
	verifyReqs := 0.0
	enumOps := 0.0
	for _, p := range []phase{lat, tput} {
		for _, s := range p.samples {
			if !s.ok {
				continue
			}
			switch s.o.class {
			case "verify", "adaptive", "region":
				verifyReqs++
			case "toph", "toph2d", "stream":
				enumOps++
			}
		}
	}
	rep.set("vecmat.sweep_mb_per_req", ratio(float64(st.sweepBytes)/mib, verifyReqs), "MiB",
		"computed: pool rows read × d × 8 B over %.0f requests", verifyReqs)
	rep.set("plan.enum_depth_per_req", ratio(float64(st.rankings), enumOps), "count", "%d rankings over %.0f ops", st.rankings, enumOps)
}

// traceOverhead compares the read_p50_ms of the traced latency phase, which
// stores every request's span inside its timed interval, with that of the
// untraced one.
func traceOverhead(rep *report, lat, traced phase) {
	withSpans, n, _ := readPercentile(traced.samples, 50)
	without, m, _ := readPercentile(lat.samples, 50)
	rep.set("trace.overhead_ratio", ratio(withSpans, without), "ratio",
		"read_p50_ms of %d traced ÷ %d untraced reads", n, m)
}
