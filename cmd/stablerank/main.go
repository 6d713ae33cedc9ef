// Command stablerank is the command-line interface to the stable-ranking
// library. It operates on CSV datasets (first column: item id; remaining
// columns: scoring attributes, already normalized so larger is better) and
// exposes the paper's three problems:
//
//	stablerank verify    -data items.csv -weights 1,1      # Problem 1
//	stablerank enumerate -data items.csv -h 10             # Problems 2-3
//	stablerank random    -data items.csv -k 10 -mode set   # Section 4.3
//	stablerank skyline   -data items.csv                   # Section 2.2.5
//	stablerank gen       -kind csmetrics -n 100 > out.csv  # simulators
//
// Regions of interest are set with -weights plus either -theta (radians) or
// -cosine (minimum cosine similarity); with neither, the whole function
// space is used.
//
// Every invocation analyzes one immutable CSV snapshot. For a long-lived
// service over datasets that change in place — deltas applied to warm
// analyzers that keep their sample pools, drift streaming — run
// cmd/stablerankd instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"stablerank"
)

func main() {
	// Ctrl-C / SIGTERM cancels the context; long-running analyses stop
	// promptly instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches the subcommand and maps every failure — unknown commands,
// bad flags, missing files, inconsistent region flags — to a diagnostic on
// stderr plus a non-zero exit code, never a panic trace.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	flagOutput = stderr
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "verify":
		err = cmdVerify(ctx, args[1:])
	case "enumerate":
		err = cmdEnumerate(ctx, args[1:])
	case "random":
		err = cmdRandom(ctx, args[1:])
	case "skyline":
		err = cmdSkyline(args[1:])
	case "export":
		err = cmdExport(ctx, args[1:])
	case "gen":
		err = cmdGen(args[1:])
	case "help", "-h", "--help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "stablerank: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		// The FlagSet already printed the diagnostic and its usage.
		return 2
	default:
		fmt.Fprintln(stderr, "stablerank:", err)
		return 1
	}
}

// errUsage marks a flag-parse failure the FlagSet has already reported, so
// run maps it to exit code 2 without printing it a second time.
var errUsage = errors.New("usage error")

// flagOutput is where subcommand FlagSets print their diagnostics and -h
// usage; run points it at its stderr writer so the whole CLI honors one
// destination (tests inject a buffer).
var flagOutput io.Writer = os.Stderr

// parseArgs parses args with fs, folding parse failures into errUsage while
// letting -h pass through as flag.ErrHelp.
func parseArgs(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(flagOutput)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: stablerank <command> [flags]

commands:
  verify     compute the stability of the ranking induced by -weights
  enumerate  list the most stable rankings in the region of interest
  random     randomized top-k stable ranking enumeration
  skyline    print the skyline (non-dominated items)
  export     emit the stability decomposition as JSON
  gen        generate a simulated dataset as CSV on stdout

run 'stablerank <command> -h' for command flags`)
}

// commonFlags holds the flags shared by the analysis commands.
type commonFlags struct {
	data     string
	header   bool
	weights  string
	theta    float64
	cosine   float64
	seed     int64
	samples  int
	parallel int
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.data, "data", "", "CSV dataset path (required)")
	fs.BoolVar(&c.header, "header", true, "CSV has a header row")
	fs.StringVar(&c.weights, "weights", "", "comma-separated reference weights")
	fs.Float64Var(&c.theta, "theta", 0, "region half-angle around -weights (radians)")
	fs.Float64Var(&c.cosine, "cosine", 0, "minimum cosine similarity with -weights")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.samples, "samples", 100000, "Monte-Carlo sample pool size")
	fs.IntVar(&c.parallel, "parallel", 0, "sample-pool build workers (0 = all cores; results are identical for any value)")
	return c
}

func (c *commonFlags) load() (*stablerank.Dataset, error) {
	if c.data == "" {
		return nil, errors.New("-data is required")
	}
	f, err := os.Open(c.data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stablerank.ReadCSV(f, c.header)
}

func (c *commonFlags) parseWeights(d int) ([]float64, error) {
	if c.weights == "" {
		return nil, nil
	}
	w, err := stablerank.ParseWeights(c.weights, d)
	if err != nil {
		return nil, fmt.Errorf("-weights: %w", err)
	}
	return w, nil
}

func (c *commonFlags) analyzerOptions(w []float64) ([]stablerank.Option, error) {
	if c.parallel < 0 {
		return nil, errors.New("-parallel must be >= 0")
	}
	opts := []stablerank.Option{
		stablerank.WithSeed(c.seed),
		stablerank.WithSampleCount(c.samples),
		stablerank.WithWorkers(c.parallel),
	}
	region, err := stablerank.RegionOption(w, c.theta, c.cosine)
	if err != nil {
		return nil, fmt.Errorf("-theta/-cosine: %w", err)
	}
	if region != nil {
		opts = append(opts, region)
	}
	return opts, nil
}

func cmdVerify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	c := addCommon(fs)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	ds, err := c.load()
	if err != nil {
		return err
	}
	w, err := c.parseWeights(ds.D())
	if err != nil {
		return err
	}
	if w == nil {
		return errors.New("verify requires -weights")
	}
	opts, err := c.analyzerOptions(w)
	if err != nil {
		return err
	}
	a, err := stablerank.New(ds, opts...)
	if err != nil {
		return err
	}
	r := stablerank.RankingOf(ds, w)
	results, err := a.Do(ctx, stablerank.VerifyQuery{Ranking: r})
	if err != nil {
		return err
	}
	if results[0].Err != nil {
		return results[0].Err
	}
	v := results[0].Verification
	fmt.Printf("ranking: %s\n", r.Describe(ds, 10))
	if v.Exact {
		fmt.Printf("stability: %.6f (exact)\n", v.Stability)
		fmt.Printf("region angles: [%.6f, %.6f]\n", v.Interval.Lo, v.Interval.Hi)
	} else {
		fmt.Printf("stability: %.6f ± %.6f (Monte-Carlo, %d samples)\n",
			v.Stability, v.ConfidenceError, c.samples)
		fmt.Printf("region constraints: %d ordering-exchange halfspaces\n", len(v.Constraints))
	}
	return nil
}

func cmdEnumerate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("enumerate", flag.ContinueOnError)
	c := addCommon(fs)
	h := fs.Int("h", 10, "number of stable rankings to report")
	threshold := fs.Float64("threshold", 0, "report all rankings with stability >= threshold instead of -h")
	show := fs.Int("show", 5, "ranked items to print per result")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	ds, err := c.load()
	if err != nil {
		return err
	}
	w, err := c.parseWeights(ds.D())
	if err != nil {
		return err
	}
	opts, err := c.analyzerOptions(w)
	if err != nil {
		return err
	}
	a, err := stablerank.New(ds, opts...)
	if err != nil {
		return err
	}
	// Stream the enumeration so results print as they are discovered; the
	// delayed arrangement construction makes early answers much cheaper than
	// the full enumeration.
	var query stablerank.Query
	if *threshold > 0 {
		query = stablerank.AboveQuery{Threshold: *threshold}
	} else {
		query = stablerank.TopHQuery{H: *h}
	}
	count := 0
	for res, err := range a.Stream(ctx, query) {
		if err != nil {
			return err
		}
		s := res.Stable
		kind := "mc"
		if s.Exact {
			kind = "exact"
		}
		count++
		fmt.Printf("%3d. stability %.6f (%s)  %s\n", count, s.Stability, kind, s.Ranking.Describe(ds, *show))
	}
	if count == 0 {
		fmt.Println("no rankings found in the region of interest")
	}
	return nil
}

func cmdRandom(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("random", flag.ContinueOnError)
	c := addCommon(fs)
	k := fs.Int("k", 10, "top-k size")
	mode := fs.String("mode", "set", "top-k semantics: set, ranked, or complete")
	h := fs.Int("h", 5, "results to report")
	first := fs.Int("first", 5000, "sampling budget of the first call")
	step := fs.Int("step", 1000, "sampling budget of subsequent calls")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	ds, err := c.load()
	if err != nil {
		return err
	}
	w, err := c.parseWeights(ds.D())
	if err != nil {
		return err
	}
	opts, err := c.analyzerOptions(w)
	if err != nil {
		return err
	}
	a, err := stablerank.New(ds, opts...)
	if err != nil {
		return err
	}
	var m stablerank.Mode
	switch *mode {
	case "set":
		m = stablerank.TopKSet
	case "ranked":
		m = stablerank.TopKRanked
	case "complete":
		m = stablerank.Complete
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	r, err := a.Randomized(m, *k)
	if err != nil {
		return err
	}
	results, err := r.TopH(ctx, *h, *first, *step)
	if err != nil {
		return err
	}
	for i, res := range results {
		ids := make([]string, len(res.Items))
		for j, idx := range res.Items {
			ids[j] = ds.Item(idx).ID
		}
		fmt.Printf("%3d. stability %.5f ± %.5f  [%s]\n",
			i+1, res.Stability, res.ConfidenceError, strings.Join(ids, ", "))
	}
	fmt.Printf("total samples: %d\n", r.TotalSamples())
	return nil
}

func cmdSkyline(args []string) error {
	fs := flag.NewFlagSet("skyline", flag.ContinueOnError)
	c := addCommon(fs)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	ds, err := c.load()
	if err != nil {
		return err
	}
	sky := ds.Skyline()
	fmt.Printf("skyline: %d of %d items\n", len(sky), ds.N())
	for _, i := range sky {
		fmt.Println(ds.Item(i).ID)
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "independent", "csmetrics|fifa|diamonds|flights|independent|correlated|anticorrelated")
	n := fs.Int("n", 100, "items to generate")
	d := fs.Int("d", 3, "attributes (synthetic kinds only)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var ds *stablerank.Dataset
	switch *kind {
	case "csmetrics":
		ds = stablerank.CSMetrics(rng, *n)
	case "fifa":
		ds = stablerank.FIFA(rng, *n)
	case "diamonds":
		ds = stablerank.Diamonds(rng, *n)
	case "flights":
		ds = stablerank.Flights(rng, *n)
	case "independent":
		ds = stablerank.Independent(rng, *n, *d)
	case "correlated":
		ds = stablerank.Correlated(rng, *n, *d)
	case "anticorrelated":
		ds = stablerank.AntiCorrelated(rng, *n, *d)
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	return ds.WriteCSV(os.Stdout, true)
}
