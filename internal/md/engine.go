package md

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/lp"
	"stablerank/internal/rank"
	"stablerank/internal/vecmat"
)

// Region is one (partially refined) cell of the arrangement of ordering
// exchanges, the data structure of Figure 2 in the paper: the halfspaces
// accumulated so far, the Monte-Carlo stability, the index of the first
// hyperplane not yet considered, and the [sb, se) range of the shared sample
// array holding exactly the samples inside the cell (Section 5.4).
type Region struct {
	Constraints []geom.Halfspace
	Stability   float64
	pending     int
	sb, se      int
}

// SampleCount returns the number of region-of-interest samples inside the
// region; Stability is SampleCount divided by the total sample count.
func (r *Region) SampleCount() int { return r.se - r.sb }

// Result is one stable ranking produced by the engine.
type Result struct {
	// Ranking is the full ranking induced by every function in the region.
	Ranking rank.Ranking
	// Stability is the Monte-Carlo stability estimate.
	Stability float64
	// Weights is the representative scoring function used to materialize the
	// ranking (the centroid of the region's samples).
	Weights geom.Vector
	// Region is the reported cell.
	Region *Region
}

// IntersectionMode selects how the engine tests whether a hyperplane passes
// through a region (the passThrough call in Algorithm 6).
type IntersectionMode int

const (
	// SamplePartition uses the Section 5.4 quick-sort partition over the
	// shared sample array: a hyperplane crosses a region iff the region's
	// samples fall on both of its sides. Unbiased, O(samples in region).
	SamplePartition IntersectionMode = iota
	// LPExact additionally confirms each split with the exact linear
	// program of Section 4.2 before accepting it, rejecting splits whose
	// smaller side is a numerical artifact. Slower; used for ablation.
	LPExact
)

// Engine performs delayed arrangement construction (GET-NEXTmd,
// Algorithm 6): it keeps a max-heap of regions by stability and refines only
// the most stable region until that region has no pending hyperplane left,
// at which point its ranking is emitted.
type Engine struct {
	ds       *dataset.Dataset
	hps      []geom.Hyperplane
	samples  vecmat.Matrix // shared contiguous matrix, partitioned in place
	total    int
	regions  regionHeap
	computer *rank.Computer
	mode     IntersectionMode
	returned map[string]bool
	// cur is the region Next was refining when it last returned early, on
	// cancellation or an LP error. The next call resumes it before popping:
	// container/heap is not stable, so pushing it back could let another
	// region of equal stability pop first, and a resumed enumeration would
	// then emit tied rankings in a different order than an uncancelled one.
	cur *Region
	// splits and lpCalls instrument the ablation benchmarks.
	splits  int
	lpCalls int
}

// NewEngineMatrix prepares GET-NEXTmd over the dataset within the region of
// interest, with samples drawn (by the caller) uniformly from that region
// into a contiguous row-major matrix (stride = the dataset dimension). The
// matrix is owned by the engine afterwards and its rows are reordered in
// place by the Section 5.4 partition sweeps; callers sharing a pool pass a
// Clone.
func NewEngineMatrix(ds *dataset.Dataset, roi geom.Region, samples vecmat.Matrix, mode IntersectionMode) (*Engine, error) {
	if ds.N() == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	if samples.Rows() == 0 {
		return nil, ErrNoSamples
	}
	d := ds.D()
	if roi.Dim() != d {
		return nil, fmt.Errorf("md: region of interest dimension %d != dataset dimension %d", roi.Dim(), d)
	}
	if samples.Stride() != d {
		return nil, fmt.Errorf("md: sample dimension %d != dataset dimension %d", samples.Stride(), d)
	}
	e := &Engine{
		ds:       ds,
		hps:      ExchangeHyperplanes(ds, roi),
		samples:  samples,
		total:    samples.Rows(),
		computer: rank.NewComputer(ds),
		mode:     mode,
		returned: make(map[string]bool),
	}
	root := &Region{Stability: 1, pending: 0, sb: 0, se: samples.Rows()}
	e.regions = regionHeap{root}
	heap.Init(&e.regions)
	return e, nil
}

// HyperplaneCount returns the number of ordering exchanges intersecting the
// region of interest (|H| in Algorithm 6).
func (e *Engine) HyperplaneCount() int { return len(e.hps) }

// Splits returns the number of region splits performed so far.
func (e *Engine) Splits() int { return e.splits }

// LPCalls returns the number of exact LP intersection checks performed (only
// nonzero in LPExact mode).
func (e *Engine) LPCalls() int { return e.lpCalls }

// Next returns the next most stable ranking region (Algorithm 6). The search
// refines only the currently most stable region, so early calls avoid
// constructing the full arrangement. Cancelling ctx stops the refinement
// within the current region and returns the context's error; the engine
// stays consistent and a later call with a live context resumes where it
// left off, emitting exactly the sequence an uncancelled engine would.
func (e *Engine) Next(ctx context.Context) (Result, error) {
	for e.cur != nil || e.regions.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		r := e.cur
		if r == nil {
			r = heap.Pop(&e.regions).(*Region)
		}
		e.cur = nil
		split := false
		for scanned := 0; r.pending < len(e.hps); scanned++ {
			// A single region can scan O(n^2) pending hyperplanes, each with a
			// partition pass over its samples; poll cancellation periodically
			// and keep the region in progress so the engine stays resumable.
			if scanned%64 == 0 {
				if err := ctx.Err(); err != nil {
					e.cur = r
					return Result{}, err
				}
			}
			h := e.hps[r.pending]
			r.pending++
			mid := e.samples.PartitionRows(h.Normal, r.sb, r.se)
			if mid == r.sb || mid == r.se {
				continue // does not pass through this region
			}
			if e.mode == LPExact {
				e.lpCalls++
				ok, err := lp.HyperplaneIntersects(e.ds.D(), h, orientedNormals(r.Constraints))
				if err != nil {
					// Keep the region in progress so a retry does not
					// silently lose it (and its stability mass) from the
					// enumeration, and rewind pending so the retry re-tests
					// this hyperplane instead of skipping its split (the
					// partition is idempotent on its range).
					r.pending--
					e.cur = r
					return Result{}, err
				}
				if !ok {
					// The split is a sampling artifact at the region
					// boundary; keep the larger side's samples and move on.
					continue
				}
			}
			neg := &Region{
				Constraints: appendHalfspace(r.Constraints, h.NegativeHalf()),
				Stability:   float64(mid-r.sb) / float64(e.total),
				pending:     r.pending,
				sb:          r.sb, se: mid,
			}
			pos := &Region{
				Constraints: appendHalfspace(r.Constraints, h.PositiveHalf()),
				Stability:   float64(r.se-mid) / float64(e.total),
				pending:     r.pending,
				sb:          mid, se: r.se,
			}
			heap.Push(&e.regions, neg)
			heap.Push(&e.regions, pos)
			e.splits++
			split = true
			break
		}
		if split {
			continue
		}
		// No pending hyperplane crosses the region: it is a final cell.
		if r.SampleCount() == 0 {
			continue // unreachable sliver: nothing to rank with
		}
		w := e.centroid(r)
		ranking := e.computer.Compute(w).Clone()
		key := ranking.Key()
		if e.returned[key] {
			// Two cells separated only by hyperplanes no sample straddles
			// can carry the same ranking; merge by skipping duplicates.
			continue
		}
		e.returned[key] = true
		return Result{Ranking: ranking, Stability: r.Stability, Weights: w, Region: r}, nil
	}
	return Result{}, ErrExhausted
}

// centroid returns the normalized average of the region's samples: a point
// interior to the (convex) region. The accumulation is a flat row sweep
// whose order matches the historical slice-of-vectors loop bit for bit.
func (e *Engine) centroid(r *Region) geom.Vector {
	c := make(geom.Vector, e.ds.D())
	e.samples.CentroidRows(r.sb, r.se, c)
	if u, err := c.Normalize(); err == nil {
		return u
	}
	return geom.Vector(e.samples.Row(r.sb)).Clone()
}

func appendHalfspace(cs []geom.Halfspace, hs geom.Halfspace) []geom.Halfspace {
	out := make([]geom.Halfspace, len(cs)+1)
	copy(out, cs)
	out[len(cs)] = hs
	return out
}

func orientedNormals(cs []geom.Halfspace) []geom.Vector {
	out := make([]geom.Vector, len(cs))
	for i, hs := range cs {
		out[i] = hs.Oriented()
	}
	return out
}

type regionHeap []*Region

func (h regionHeap) Len() int            { return len(h) }
func (h regionHeap) Less(i, j int) bool  { return h[i].Stability > h[j].Stability }
func (h regionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *regionHeap) Push(x interface{}) { *h = append(*h, x.(*Region)) }
func (h *regionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TopH returns the h most stable rankings in the region of interest.
func TopH(ctx context.Context, e *Engine, h int) ([]Result, error) {
	var out []Result
	for len(out) < h {
		r, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FullArrangement is the baseline of Section 4.2 that the delayed
// construction avoids: it refines every region against every hyperplane
// first and only then reports rankings in decreasing stability. maxRegions
// caps the construction (the arrangement can have O(n^{2d}) cells); 0 means
// no cap. Kept for the ablation benchmarks. Like NewEngineMatrix, it
// reorders the sample matrix's rows in place.
func FullArrangement(ctx context.Context, ds *dataset.Dataset, roi geom.Region, samples vecmat.Matrix, maxRegions int) ([]Result, error) {
	e, err := NewEngineMatrix(ds, roi, samples, SamplePartition)
	if err != nil {
		return nil, err
	}
	var out []Result
	for {
		if maxRegions > 0 && len(out) >= maxRegions {
			break
		}
		r, err := e.Next(ctx)
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
