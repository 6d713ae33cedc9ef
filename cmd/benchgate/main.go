// Command benchgate is the CI perf-regression gate: it compares two
// benchmark runs captured as `go test -json` streams (the `make benchjson`
// artifacts, e.g. BENCH_pr2.json vs BENCH_pr3.json) and fails when a
// benchmark slowed down beyond a tolerance threshold.
//
//	benchgate -baseline BENCH_pr3.json -candidate BENCH_pr4.json \
//	    -match 'PoolBuild|Verify|SV2D|SVMD|Kernel' -threshold 1.25 -min 25ms
//
// Only benchmarks present in BOTH streams and matching -match are gated;
// baselines faster than -min are skipped, because single-iteration timings
// of micro-benchmarks are dominated by scheduler noise rather than code.
// When a stream repeats a benchmark (captured with -count N) the minimum
// sample is used — repetition only adds noise, never speed. New benchmarks
// are reported informationally, and so are vanished ones outside -match; a
// baseline benchmark matching -match that is missing from the candidate
// fails the gate, so deleting or renaming a gated benchmark cannot quietly
// drop its gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline  = fs.String("baseline", "", "baseline `go test -json` stream (required)")
		candidate = fs.String("candidate", "", "candidate `go test -json` stream (required)")
		threshold = fs.Float64("threshold", 1.25, "fail when candidate ns/op exceeds baseline*threshold")
		match     = fs.String("match", "", "regexp selecting gated benchmarks (default: all)")
		minTime   = fs.Duration("min", 25*time.Millisecond, "skip benchmarks with a baseline below this (single-iteration noise)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" || *candidate == "" {
		fmt.Fprintln(stderr, "benchgate: -baseline and -candidate are required")
		fs.Usage()
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintln(stderr, "benchgate: -threshold must be positive")
		return 2
	}
	var filter *regexp.Regexp
	if *match != "" {
		var err error
		if filter, err = regexp.Compile(*match); err != nil {
			fmt.Fprintf(stderr, "benchgate: bad -match: %v\n", err)
			return 2
		}
	}
	old, err := parseFile(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	fresh, err := parseFile(*candidate)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	regressions, missing := report(stdout, old, fresh, filter, *threshold, *minTime)
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchgate: %d benchmark(s) regressed beyond %.0f%%\n",
			regressions, (*threshold-1)*100)
	}
	if missing > 0 {
		fmt.Fprintf(stderr, "benchgate: %d gated benchmark(s) missing from the candidate\n", missing)
	}
	if regressions+missing > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "benchgate: no gated regressions")
	return 0
}

// event is the subset of test2json records benchgate reads.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches one benchmark result line after output reassembly, e.g.
// "BenchmarkFig10SV2D/n=100-8   \t       1\t      5600 ns/op\t ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.eE+]+) ns/op`)

// cpuSuffix strips the trailing -GOMAXPROCS decoration so runs from machines
// with different core counts compare by benchmark identity.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parseFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reassembles the per-package output stream (test2json splits
// benchmark result lines across events) and extracts name -> ns/op.
func parse(r io.Reader) (map[string]float64, error) {
	perPkg := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Tolerate non-JSON noise (build output, panics mid-stream).
			continue
		}
		if ev.Action != "output" || ev.Output == "" {
			continue
		}
		b, ok := perPkg[ev.Package]
		if !ok {
			b = &strings.Builder{}
			perPkg[ev.Package] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	results := make(map[string]float64)
	for _, b := range perPkg {
		for _, line := range strings.Split(b.String(), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				continue
			}
			name := cpuSuffix.ReplaceAllString(m[1], "")
			// A stream captured with -count N repeats each benchmark; keep
			// the minimum. Single-iteration timings only gain noise (GC,
			// scheduler, a busy neighbor on the runner), so the fastest
			// sample is the best estimate of the code's true cost.
			if prev, ok := results[name]; !ok || ns < prev {
				results[name] = ns
			}
		}
	}
	return results, nil
}

// report prints the comparison table and returns the number of gated
// regressions and of baseline benchmarks matching filter that are missing
// from the candidate.
func report(w io.Writer, old, fresh map[string]float64, filter *regexp.Regexp, threshold float64, minTime time.Duration) (regressions, missing int) {
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldNS := old[name]
		newNS, ok := fresh[name]
		switch {
		case !ok && filter != nil && filter.MatchString(name):
			fmt.Fprintf(w, "GONE      %-60s baseline %12.0f ns/op (gated, missing from the candidate)\n", name, oldNS)
			missing++
			continue
		case !ok:
			fmt.Fprintf(w, "gone      %-60s baseline %12.0f ns/op\n", name, oldNS)
			continue
		}
		ratio := newNS / oldNS
		switch {
		case filter != nil && !filter.MatchString(name):
			fmt.Fprintf(w, "ungated   %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", name, oldNS, newNS, (ratio-1)*100)
		case oldNS < float64(minTime.Nanoseconds()):
			fmt.Fprintf(w, "noise     %-60s %12.0f -> %12.0f ns/op (below -min, skipped)\n", name, oldNS, newNS)
		case ratio > threshold:
			fmt.Fprintf(w, "REGRESSED %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", name, oldNS, newNS, (ratio-1)*100)
			regressions++
		default:
			fmt.Fprintf(w, "ok        %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", name, oldNS, newNS, (ratio-1)*100)
		}
	}
	fresh2 := make([]string, 0)
	for name := range fresh {
		if _, ok := old[name]; !ok {
			fresh2 = append(fresh2, name)
		}
	}
	sort.Strings(fresh2)
	for _, name := range fresh2 {
		fmt.Fprintf(w, "new       %-60s %30.0f ns/op\n", name, fresh[name])
	}
	return regressions, missing
}
