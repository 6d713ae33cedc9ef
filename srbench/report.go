package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricName is the shape every reported metric name has.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type metric struct {
	name  string
	value float64
	unit  string
	base  string // the counts a ratio or mean was computed from
}

// report collects metrics in the order they are set.
type report struct {
	list  []metric
	index map[string]int
}

func newReport() *report { return &report{index: make(map[string]int)} }

// set records a metric; a NaN value (a ratio with an empty base, a layer
// the workload never reaches) is printed as n/a and kept out of the JSON.
func (r *report) set(name string, value float64, unit, base string, args ...any) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q does not match %s", name, metricName))
	}
	m := metric{name: name, value: value, unit: unit, base: fmt.Sprintf(base, args...)}
	if i, ok := r.index[name]; ok {
		r.list[i] = m
		return
	}
	r.index[name] = len(r.list)
	r.list = append(r.list, m)
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok || math.IsNaN(r.list[i].value) {
		return metric{}, false
	}
	return r.list[i], true
}

// print writes one "name value unit [base]" line per metric.
func (r *report) print(w io.Writer) {
	for _, m := range r.list {
		v := "n/a"
		if !math.IsNaN(m.value) {
			v = fmt.Sprintf("%.6g", m.value)
		}
		line := fmt.Sprintf("  %-40s %14s %-6s", m.name, v, m.unit)
		if m.base != "" {
			line += "  (" + m.base + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// printClasses writes the latency-phase figures of each op class, so a read
// percentile that moves can be traced to the class that moved it.
func printClasses(w io.Writer, lat phase) {
	by := map[string][]float64{}
	var names []string
	for _, s := range lat.samples {
		if _, ok := by[s.o.class]; !ok {
			names = append(names, s.o.class)
		}
		by[s.o.class] = append(by[s.o.class], s.lat)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := by[n]
		fmt.Fprintf(w, "  latency phase %-12s %6d ops  p50 %.4g ms  p95 %.4g ms\n", n, len(xs), pct(xs, 50), pct(xs, 95))
	}
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names each mode must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine builds the final JSON line from the metrics the spec lists
// for this mode, failing if any is missing or has another unit.
func (r *report) resultLine(spec *benchSpec, trace bool, attempted, failed int) ([]byte, error) {
	type named struct{ Name, Unit string }
	var want []named
	if trace {
		for _, m := range spec.PerLayer {
			want = append(want, named{m.Name, m.Unit})
		}
	} else {
		for _, m := range spec.EndToEnd {
			want = append(want, named{m.Name, m.Unit})
		}
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric, len(want))}
	var missing []string
	for _, w := range want {
		m, ok := r.get(w.Name)
		switch {
		case !ok:
			missing = append(missing, w.Name)
		case m.unit != w.Unit:
			return nil, fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit)
		default:
			out.Metrics[w.Name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics listed in BENCHMARK.json but not measured: %v", missing)
	}
	return json.Marshal(out)
}
