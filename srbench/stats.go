package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer make the percentile a single unlucky sample.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (which it sorts
// in place). Failed requests enter xs as +Inf, so they count as missing any
// latency limit. It refuses a percentile with fewer than minBeyond samples
// beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if beyond := n - 1 - i; beyond < minBeyond && p > 50 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sort.Float64s(xs)
	return xs[i], nil
}

// median is the 50th percentile; it needs only one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	v, _ := percentile(xs, 50)
	return v
}

// maxWindows bounds how many consecutive windows a phase is split into.
const maxWindows = 10

// windowed splits xs, in time order, into as many equal consecutive windows
// as keep at least minPer samples each (at most maxWindows, at least one)
// and returns the median over the windows of f, with each window's value. A
// burst of interference on the shared machine then moves one window's
// figure, not the run's.
func windowed(xs []float64, minPer int, f func([]float64) float64) (float64, []float64) {
	k := min(maxWindows, max(1, len(xs)/max(1, minPer)))
	vals := make([]float64, k)
	for w := 0; w < k; w++ {
		vals[w] = f(append([]float64(nil), xs[w*len(xs)/k:(w+1)*len(xs)/k]...))
	}
	return median(append([]float64(nil), vals...)), vals
}

// flatStats flattens a /statsz JSON document into dotted numeric leaves,
// e.g. "cache.hits" or "store.snapshots.bytes_written". Arrays (the
// resident-analyzer list) and non-numeric leaves are skipped.
func flatStats(body []byte) (map[string]float64, error) {
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	out := make(map[string]float64)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				walk(prefix+k+".", c)
			}
		case float64:
			out[strings.TrimSuffix(prefix, ".")] = t
		}
	}
	walk("", doc)
	return out, nil
}

// gauges are /statsz leaves that hold a level, not a running count; their
// difference is meaningless, so statsDiff reports the later value.
var gauges = map[string]bool{
	"analyzers.pool_bytes_total": true,
	"analyzers.inflight_builds":  true,
	"analyzers.capacity":         true,
	"cache.size":                 true,
	"cache.capacity":             true,
	"cache.hit_rate":             true,
	"inflight_requests":          true,
	"store.bytes":                true,
	"workers":                    true,
}

// statsDiff returns after − before for every counter in after, and the after
// value for gauges.
func statsDiff(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if gauges[k] {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}

// procSample is a stablerankd process's CPU time and peak RSS read from
// /proc/<pid>/stat and /proc/<pid>/status.
type procSample struct {
	cpuTicks int64 // utime + stime
	hwmKiB   int64 // VmHWM
}

// clockTicks is USER_HZ, the unit of utime and stime; it is 100 on every
// Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("parsing /proc/%d/stat times", pid)
	}
	s.cpuTicks = ut + st
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.Fields(v)
			if len(kb) > 0 {
				s.hwmKiB, _ = strconv.ParseInt(kb[0], 10, 64)
			}
		}
	}
	return s, nil
}
