// Package stablerank is a from-scratch Go reproduction of
//
//	Abolfazl Asudeh, H. V. Jagadish, Gerome Miklau, Julia Stoyanovich.
//	"On Obtaining Stable Rankings." PVLDB 12(3): 237-250, VLDB 2018.
//
// A ranking produced by a linear weighting of item attributes is STABLE if a
// large fraction of the weight space induces it. This module implements the
// paper's full framework — exact 2D verification and enumeration, the
// multi-dimensional delayed arrangement construction, unbiased function-
// space samplers, and randomized top-k operators — together with the
// substrate it needs (geometry, simplex LP, statistics, data generators) and
// a benchmark harness regenerating every figure of the paper's evaluation.
//
// This root package is the one supported API. It is context-aware (every
// potentially long-running call takes a context.Context and honors
// cancellation) and its Analyzer is safe for concurrent use. The Monte-Carlo
// sample-pool build — the dominant cost of every analyzer — is sharded
// across WithWorkers goroutines (default GOMAXPROCS) with deterministic
// per-chunk seeding: worker counts 1, 2 and 64 produce bit-identical pools,
// and therefore identical results, for the same WithSeed.
//
// The query model: every operation is a value of the sealed Query union
// (VerifyQuery, TopHQuery, AboveQuery, ItemRankQuery, BoundaryQuery,
// EnumerateQuery), and Analyzer.Do answers any mix of them in one shared
// plan — all verify and pool-sized item-rank queries fold into a single
// fused sweep of the sample pool, and all enumeration-shaped queries share
// one cursor driven to the deepest demand. Analyzer.Stream yields
// enumeration results incrementally as an iter.Seq2. Do and Stream are the
// query entry points; the per-operation methods (VerifyStability, TopH,
// AboveThreshold, ItemRankDistribution, Boundary) are each Do with a single
// query, so results are bit-identical whichever surface is called at the
// same seed; PoolBuilds and Sweeps make the plan sharing observable. The
// plan is this package's own code: plan.go groups the queries and sweep.go
// runs the one pool sweep, exact or adaptive.
//
// Performance model: the pool is stored as one contiguous row-major matrix
// (internal/vecmat) and every verification, partition, and ranking inner
// loop is a flat batched kernel over it — no per-sample heap pointers, no
// per-sample allocations, ranking identities interned as collision-checked
// 64-bit hashes rather than strings. The flat layout changes storage only:
// sweep and accumulation orders match the earlier slice-of-vectors code bit
// for bit, so seeded results are reproducible across layouts and worker
// counts alike. PoolMemoryBytes reports the pool's resident size; the
// README's "Performance" section shows how to profile with pprof and
// benchstat (stablerankd exposes an opt-in loopback -pprof listener).
// Batched sweeps are matrix-matrix: the grouped kernels evaluate all K live
// constraint normals of a batch per pool row-pass, so a wide batch costs
// one pool read regardless of K. Once a pool has served enough verify
// counts, the analyzer builds a kd-tree index over it (a row permutation
// plus one bounding box per node, at most a quarter of the pool's bytes and
// included in PoolMemoryBytes); a ranking with enough pool rows per
// constraint is then counted by pruning whole boxes outside its region, and
// the conservative box tests make that count equal the scan's bit for bit.
// Enumeration is memoized per analyzer: each Analyzer keeps the longest
// prefix of its GET-NEXT sequence that any cursor (Do, Stream, Enumerator,
// TopHMerged) has produced, up to the pool's own size in bytes (SampleCount
// x d float64s, in 2D too), and every cursor replays it as deep copies
// before building its own engine. A cursor that goes deeper regenerates and
// discards the replayed rankings, continues live and extends the memo, so a
// repeat top-h costs a copy of a few rankings and no request costs more
// than a fresh enumeration. This is exact because GET-NEXT is deterministic
// for a fixed dataset, region and pool, a cancelled and resumed engine
// included; an Over or ApplyDelta analyzer starts with an empty memo, and
// PoolMemoryBytes counts the memo.
//
// Adaptive verification: verify sweeps are exact by default — every verify
// counts over the whole pool. WithAdaptive(target) opts an analyzer into early
// stopping: the sweep walks the pool in rounds of a fixed doubling schedule
// and retires each verify once its Equation 10 confidence-interval half-width
// clears the target, reporting the rows actually used (SampleCount), the
// interval (ConfidenceError), and Adaptive=true. The stopping row depends
// only on (seed, target), never on the worker count, so adaptive results
// remain deterministic; if the pool is exhausted before the interval
// clears, the answer is bit-identical to the exact sweep and Adaptive stays
// false. Only Monte-Carlo verify sweeps participate: exact 2D operators,
// item-rank distributions (they ride the same sweep over their whole
// prefix), and enumeration always run their exact paths, and analyzers
// without WithAdaptive are unaffected. Looser targets stop after the first
// 4096-row round; tighter targets converge on the exact sweep, so adaptive
// pays off on pools several rounds deep. AdaptiveStops
// and AdaptiveRowsSaved report the realized savings (surfaced per analyzer
// in the service's /statsz), and /v1/query takes the same knob per request
// as its "adaptive" field.
//
// The determinism invariants above are machine-checked, not aspirational:
// cmd/srlint (run by `make analyze` and CI) rejects map iteration and
// multi-ready selects in the determinism-critical internal packages unless
// the order comes from a sort, sync.Once closures that latch a
// context-derived error into shared state, expensive work performed while a
// mutex is held or `// guarded by <mu>` fields touched without the lock, and
// context.Context values minted outside main or stored in struct fields.
// Every exception in the tree carries a justified //srlint: directive; the
// suite's own tests pin the bug classes that motivated it.
//
// Durability: because the pool draw is deterministic in (dimension, region,
// seed, sample count), a drawn pool can be snapshotted and restored
// bit-identically instead of redrawn. WithPoolCache plugs a PoolCache in at
// construction; stablerankd wires one backed by internal/store when started
// with -data (server Config.DataDir), so a restarted service answers its
// first query from a restored pool — PoolBuilds stays zero, PoolRestores
// and PoolSnapshotKey make the restore observable — with results identical
// to a cold build. Snapshots are keyed by those draw parameters plus
// PoolLayoutVersion — never by dataset content, which the draw ignores — so
// an incompatible codec can never alias a stale pool and dataset mutation
// invalidates no snapshot.
//
// Mutability: the sample pool is a set of weight-space points, so editing
// the dataset invalidates none of it — only the scores and per-sample
// ranking positions of the touched items. Analyzer.Over returns the
// analyzer's configuration over any other dataset of the same dimension,
// sharing its pool cell — the pool, drawn or not, and the counters of the
// work done on it — which beats a rebuild by orders of magnitude at
// realistic pool sizes. ApplyDeltas edits a Dataset value;
// Analyzer.ApplyDelta applies ItemAdd / ItemRemove / AttrUpdate deltas to
// an analyzer: the Over view of the dataset with the deltas applied, plus a
// record of the batch. A derived analyzer and its parent therefore draw at
// most one pool between them, and PoolBuilds, PoolRestores,
// PoolBuildDuration, Sweeps, AdaptiveStops and AdaptiveRowsSaved read the
// same on both. Nothing ranking-shaped is maintained incrementally: every
// answer is computed from the view's dataset and the shared pool, so a
// derived analyzer is bit-identical to one constructed fresh over its
// dataset. DeltasApplied makes the maintenance observable, and LastDrift
// prices the most recent batch's score and rank impact against the pool on
// demand. Typical use:
//
//	ds, _ := stablerank.ReadCSV(f, true)
//	a, _ := stablerank.New(ds, stablerank.WithCosineSimilarity(weights, 0.998))
//	v, _ := a.VerifyStability(ctx, stablerank.RankingOf(ds, weights))
//	e, _ := a.Enumerator(ctx)
//	for s, err := range e.Rankings(ctx) {
//		...
//	}
//
// Entry points:
//
//   - stablerank (this package): Analyzer (verify / enumerate / randomized),
//     Dataset construction and CSV I/O, ranking metrics, data simulators
//   - server + cmd/stablerankd: the HTTP service over the same operators
//   - cmd/stablerank: CSV-driven command-line interface
//   - cmd/benchfig: regenerates Figures 7-21 as text tables
//   - examples/: five runnable scenarios from the paper
//
// Choosing an entry point: LIBRARY users who want the operators in-process
// import this package and share one Analyzer across goroutines. SERVICE
// users who want the operators behind HTTP — shared analyzers and sample
// pools across many clients, heterogeneous query lists via POST /v1/query,
// NDJSON streaming enumeration, async jobs for long enumerations, an LRU
// result cache, per-request timeouts, runtime dataset registration — run
// cmd/stablerankd, which is a thin listener around the server package. Both
// CLIs take -parallel to pin the pool-build worker count (0 = all cores;
// results are identical for any value).
//
// Everything under internal/ is implementation detail and may change without
// notice; import this package.
//
// See README.md for a tour. cmd/benchfig reprints every evaluation figure,
// and the root-level benchmarks in bench_test.go mirror it at testing.B
// scale.
package stablerank
