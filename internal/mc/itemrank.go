package mc

import (
	"context"
	"fmt"
	"sort"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// Per-item rank distributions: Example 1's consumer question in
// distributional form. CSMetrics places Cornell at rank 11 under alpha=0.3,
// just missing the top-10; the natural follow-up is the probability, over
// the acceptable weight region, that the item lands in the top-10 at all.
// One sample costs O(n) — the item's rank is one plus the number of items
// scoring strictly higher (or tying with a smaller index) — so no sorting is
// involved.

// RankDistribution summarizes the rank of one item across sampled scoring
// functions.
type RankDistribution struct {
	// Item is the dataset index analyzed.
	Item int
	// Counts[r] is the number of samples placing the item at 1-based rank
	// r+1... stored sparsely: Counts maps rank -> count.
	Counts map[int]int
	// Samples is the total number of samples drawn.
	Samples int
	// Best and Worst are the extreme observed ranks (1-based).
	Best, Worst int
}

// ProbabilityTopK returns the fraction of samples placing the item within
// the top k ranks.
func (d RankDistribution) ProbabilityTopK(k int) float64 {
	if d.Samples == 0 {
		return 0
	}
	total := 0
	for r, c := range d.Counts { //srlint:ordered integer summation is exact and commutative
		if r <= k {
			total += c
		}
	}
	return float64(total) / float64(d.Samples)
}

// Quantile returns the smallest rank r such that at least fraction q of the
// samples place the item at rank <= r. q is clamped to (0, 1].
func (d RankDistribution) Quantile(q float64) int {
	if d.Samples == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-12
	}
	if q > 1 {
		q = 1
	}
	ranks := make([]int, 0, len(d.Counts))
	for r := range d.Counts {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	need := int(q * float64(d.Samples))
	if need < 1 {
		need = 1
	}
	acc := 0
	for _, r := range ranks {
		acc += d.Counts[r]
		if acc >= need {
			return r
		}
	}
	return ranks[len(ranks)-1]
}

// Mode returns the most frequent rank (ties broken by the better rank).
func (d RankDistribution) Mode() int {
	best, bestCount := 0, -1
	ranks := make([]int, 0, len(d.Counts))
	for r := range d.Counts {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if d.Counts[r] > bestCount {
			best, bestCount = r, d.Counts[r]
		}
	}
	return best
}

// ItemRankDistribution samples the region of interest n times and returns
// the distribution of the item's 1-based rank. Ranks use the same
// deterministic tie-break as the ranking operator (score ties go to the
// smaller index): each sample scores every item once with the d-specialized
// MulVec kernel and ranks the item with RankAmong. Cancelling ctx aborts the
// sweep with the context's error.
func ItemRankDistribution(ctx context.Context, ds *dataset.Dataset, sampler sampling.Sampler, item, n int) (RankDistribution, error) {
	if ds == nil || ds.N() == 0 {
		return RankDistribution{}, dataset.ErrEmptyDataset
	}
	if sampler == nil {
		return RankDistribution{}, fmt.Errorf("mc: nil sampler")
	}
	if sampler.Dim() != ds.D() {
		return RankDistribution{}, fmt.Errorf("mc: sampler dimension %d != dataset dimension %d", sampler.Dim(), ds.D())
	}
	if item < 0 || item >= ds.N() {
		return RankDistribution{}, fmt.Errorf("mc: item %d out of range [0, %d)", item, ds.N())
	}
	if n < 1 {
		return RankDistribution{}, fmt.Errorf("mc: need >= 1 sample, got %d", n)
	}
	dist := RankDistribution{Item: item, Counts: make(map[int]int), Best: ds.N() + 1}
	// Score against the dataset's own contiguous attribute matrix, reusing
	// one sample and one score buffer across draws: the loop body is
	// allocation-free.
	attrs := ds.Matrix()
	into, _ := sampler.(sampling.IntoSampler)
	wbuf := make(geom.Vector, ds.D())
	scores := make([]float64, ds.N())
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return RankDistribution{}, err
		}
		var err error
		if into != nil {
			err = into.SampleInto(wbuf)
		} else {
			err = sampling.Into(sampler, wbuf)
		}
		if err != nil {
			return RankDistribution{}, err
		}
		attrs.MulVec(wbuf, scores)
		r := RankAmong(scores, item)
		dist.Counts[r]++
		if r < dist.Best {
			dist.Best = r
		}
		if r > dist.Worst {
			dist.Worst = r
		}
	}
	dist.Samples = n
	return dist, nil
}

// RankAmong returns the 1-based rank of item given every item's score under
// one weight vector: 1 + #{j < item: scores[j] >= scores[item]} +
// #{j > item: scores[j] > scores[item]}, i.e. score ties go to the smaller
// index, as in the ranking operator. It is the one rank count every pool
// sweep shares — the fused query sweep's item-rank histograms,
// ItemRankDistribution and the delta drift pass — so callers score a sample
// once (MulVec) and rank as many items as they need from the same vector.
func RankAmong(scores []float64, item int) int {
	st := scores[item]
	rank := 1
	for _, s := range scores[:item] {
		if s >= st {
			rank++
		}
	}
	for _, s := range scores[item+1:] {
		if s > st {
			rank++
		}
	}
	return rank
}

// RankOf returns the 1-based rank of item under w in one O(n) flat sweep
// over a contiguous attrs matrix (one row per dataset item): one plus the
// number of items scoring strictly higher (or tying with a smaller index).
// The per-item dot products accumulate in the same order as dataset.Score,
// so ranks match the slice-of-vectors implementation bit for bit. It is the
// per-item reference that tests and benchmarks check RankAmong's sweeps
// against; the production sweeps score each sample once and use RankAmong.
func RankOf(attrs vecmat.Matrix, w geom.Vector, item int) int {
	score := vecmat.Dot(w, attrs.Row(item))
	rank := 1
	for i, n := 0, attrs.Rows(); i < n; i++ {
		if i == item {
			continue
		}
		s := vecmat.Dot(w, attrs.Row(i))
		if s > score || (s == score && i < item) {
			rank++
		}
	}
	return rank
}
