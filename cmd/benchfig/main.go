// Command benchfig regenerates every figure of the paper's evaluation
// (Section 6, Figures 7-21) as aligned text tables, plus the sampler
// illustrations (Figures 3, 4, 6) and three design ablations (see
// ablation). Each subcommand prints the same series the corresponding
// figure plots.
//
// usage:
//
//	benchfig <fig7|fig8|...|fig21|samplers|ablation|all> [-quick]
//
// -quick shrinks the largest sweeps (useful for smoke tests); the default
// sizes follow the paper where practical on one machine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ctx is cancelled on Ctrl-C / SIGTERM so long sweeps stop promptly.
var ctx = context.Background()

// run configures a figure run.
type run struct {
	quick bool
	seed  int64
}

var figures = map[string]struct {
	desc string
	fn   func(run)
}{
	"fig7":     {"CSMetrics: distribution of all rankings by stability", fig7},
	"fig8":     {"CSMetrics: stability within 0.998 cosine of the reference", fig8},
	"fig9":     {"FIFA: top stable rankings within 0.999 cosine of the reference", fig9},
	"fig10":    {"2D stability verification: time and stability vs n", fig10},
	"fig11":    {"2D GET-NEXT: first vs subsequent call time vs n", fig11},
	"fig12":    {"MD stability verification: time and stability vs n", fig12},
	"fig13":    {"MD GET-NEXT top-10: time vs n", fig13},
	"fig14":    {"MD GET-NEXT top-10: time vs d", fig14},
	"fig15":    {"MD GET-NEXT top-10: time vs region width theta", fig15},
	"fig16":    {"randomized GET-NEXT: time and top stability vs n", fig16},
	"fig17":    {"randomized GET-NEXT: top-10 stability vs n, set vs ranked", fig17},
	"fig18":    {"DoT scale test: randomized top-k up to 1M items", fig18},
	"fig19":    {"randomized GET-NEXT: time and top stability vs d", fig19},
	"fig20":    {"randomized GET-NEXT: top-10 stability vs d, set vs ranked", fig20},
	"fig21":    {"synthetic correlation: top-10 set stability", fig21},
	"samplers": {"sampler uniformity (Figures 3, 4, 6)", samplers},
	"ablation": {"ablations: passThrough mode, sampling method, delayed arrangement", ablation},
}

var figureOrder = []string{
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
	"samplers", "ablation",
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	quick := fs.Bool("quick", false, "shrink the largest sweeps")
	seed := fs.Int64("seed", 42, "random seed for data and samplers")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	var stop context.CancelFunc
	ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := run{quick: *quick, seed: *seed}
	if name == "all" {
		for _, f := range figureOrder {
			banner(f, figures[f].desc)
			figures[f].fn(r)
			fmt.Println()
		}
		return
	}
	f, ok := figures[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", name)
		usage()
		os.Exit(2)
	}
	banner(name, f.desc)
	f.fn(r)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchfig <figure> [-quick] [-seed N]")
	fmt.Fprintln(os.Stderr, "figures:")
	for _, f := range figureOrder {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", f, figures[f].desc)
	}
	fmt.Fprintln(os.Stderr, "  all       run everything")
}

func banner(name, desc string) {
	fmt.Printf("== %s: %s ==\n", name, desc)
}

// timed runs f and returns its wall-clock duration.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfig:", err)
	os.Exit(1)
}
