// Package twod implements the exact two-dimensional algorithms of Section 3:
// stability verification by a single scan of the ranked list (SV2D,
// Algorithm 1), region discovery by ray sweeping over the ordering exchanges
// (RAYSWEEPING, Algorithm 2), and iterative enumeration of regions in
// decreasing stability (GET-NEXT2D, Algorithm 3).
//
// In two dimensions a scoring function is a single angle in [0, pi/2], a
// region of interest is an angle interval, ordering exchanges are angles
// (Equation 6), and the stability of a ranking is the exact angular span of
// its region divided by the span of the region of interest.
package twod

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/rank"
)

// ErrInfeasibleRanking is returned when a ranking cannot be produced by any
// linear scoring function (a lower-ranked item dominates a higher-ranked
// one, or the exchange bounds cross).
var ErrInfeasibleRanking = errors.New("twod: ranking is not achievable by any scoring function in the region")

// ErrExhausted is returned by GetNext when every region has been reported.
var ErrExhausted = errors.New("twod: no further ranking regions")

// errNotTwoD guards the package against misuse on higher-dimensional data.
func checkTwoD(ds *dataset.Dataset) error {
	if ds.D() != 2 {
		return fmt.Errorf("twod: dataset has %d attributes, want 2", ds.D())
	}
	return nil
}

// ExchangeAngle returns the angle of the ordering exchange between items a
// and b (Equation 6): theta = arctan((b[0]-a[0]) / (a[1]-b[1])). The second
// return is false when the items do not exchange order in the open quadrant
// (one dominates the other, or they are identical).
func ExchangeAngle(a, b geom.Vector) (float64, bool) {
	dx := b[0] - a[0]
	dy := a[1] - b[1]
	if dx == 0 || dy == 0 {
		return 0, false // dominance or identical items: no exchange
	}
	if (dx > 0) != (dy > 0) {
		return 0, false // one dominates the other
	}
	return math.Atan2(math.Abs(dx), math.Abs(dy)), true
}

// VerifyResult is the outcome of stability verification in 2D.
type VerifyResult struct {
	// Stability is the exact fraction of the region of interest generating
	// the ranking.
	Stability float64
	// Region is the angle interval of scoring functions generating it.
	Region geom.Interval2D
}

// Verify computes the exact stability and ranking region of r within the
// angular region of interest iv (SV2D, Algorithm 1, generalized from U to an
// arbitrary interval). It returns ErrInfeasibleRanking if no function in iv
// induces r. Runs in O(n).
func Verify(ds *dataset.Dataset, r rank.Ranking, iv geom.Interval2D) (VerifyResult, error) {
	if err := checkTwoD(ds); err != nil {
		return VerifyResult{}, err
	}
	if len(r.Order) != ds.N() {
		return VerifyResult{}, fmt.Errorf("twod: ranking has %d items, dataset has %d", len(r.Order), ds.N())
	}
	lo, hi := iv.Lo, iv.Hi
	for i := 0; i+1 < len(r.Order); i++ {
		t := ds.Item(r.Order[i])
		u := ds.Item(r.Order[i+1])
		if equalAttrs(t.Attrs, u.Attrs) {
			// Tied everywhere: achievable iff the deterministic tie-break
			// (ascending item index) agrees with r.
			if r.Order[i] > r.Order[i+1] {
				return VerifyResult{}, ErrInfeasibleRanking
			}
			continue
		}
		if dataset.Dominates(t, u) {
			continue
		}
		if dataset.Dominates(u, t) {
			return VerifyResult{}, ErrInfeasibleRanking
		}
		theta, ok := ExchangeAngle(t.Attrs, u.Attrs)
		if !ok {
			continue
		}
		if t.Attrs[0] < u.Attrs[0] {
			// t wins only above the exchange: lower bound.
			if theta > lo {
				lo = theta
			}
		} else {
			// t wins only below the exchange: upper bound.
			if theta < hi {
				hi = theta
			}
		}
		if lo > hi {
			return VerifyResult{}, ErrInfeasibleRanking
		}
	}
	if hi-lo <= 0 {
		return VerifyResult{}, ErrInfeasibleRanking
	}
	region := geom.Interval2D{Lo: lo, Hi: hi}
	return VerifyResult{Stability: region.Width() / iv.Width(), Region: region}, nil
}

func equalAttrs(a, b geom.Vector) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Region2D is one cell of the 2D arrangement: a maximal angle interval whose
// functions all induce the same ranking.
type Region2D struct {
	Interval  geom.Interval2D
	Stability float64 // Interval width / region-of-interest width
}

// Midpoint returns the weight vector at the centre of the region, the
// representative scoring function GET-NEXT2D uses to materialize the
// ranking.
func (r Region2D) Midpoint() geom.Vector {
	return geom.Ray2D((r.Interval.Lo + r.Interval.Hi) / 2)
}

// sweepEvent is a pending ordering exchange between the items currently at
// positions holding itemA and itemB.
type sweepEvent struct {
	theta        float64
	itemA, itemB int // dataset indices; A is ranked above B below theta
}

type eventHeap []sweepEvent

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].theta < h[j].theta }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(sweepEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// RaySweep computes every ranking region inside the region of interest
// (RAYSWEEPING, Algorithm 2), returned in increasing angle order. It runs in
// O(K log n) where K <= n(n-1)/2 is the number of ordering exchanges inside
// the interval.
func RaySweep(ds *dataset.Dataset, iv geom.Interval2D) ([]Region2D, error) {
	if err := checkTwoD(ds); err != nil {
		return nil, err
	}
	n := ds.N()
	if n == 0 {
		return nil, dataset.ErrEmptyDataset
	}
	if n == 1 {
		return []Region2D{{Interval: iv, Stability: 1}}, nil
	}
	// Initial ordering at the left edge of the interval.
	l := rank.Compute(ds, geom.Ray2D(iv.Lo)).Order
	pos := make([]int, n) // pos[item] = index in l
	for i, item := range l {
		pos[item] = i
	}
	events := &eventHeap{}
	// In 2D every item pair exchanges order at most once. Exactly-concurrent
	// exchanges (three or more dual lines through one point) could otherwise
	// flip-flop at a single angle, so pairs swapped at the CURRENT sweep
	// angle are remembered; the set is cleared whenever the sweep advances,
	// keeping memory O(degeneracy) rather than O(n^2).
	swappedHere := make(map[[2]int]bool)
	sweepAngle := iv.Lo
	pushAdjacent := func(i int, after float64) {
		// Queue the exchange between l[i] and l[i+1] if it lies ahead.
		if i < 0 || i+1 >= n {
			return
		}
		a, b := l[i], l[i+1]
		theta, ok := ExchangeAngle(ds.Attrs(a), ds.Attrs(b))
		if !ok {
			return
		}
		if theta >= iv.Hi-angleEps {
			return
		}
		if theta > after+angleEps {
			heap.Push(events, sweepEvent{theta: theta, itemA: a, itemB: b})
		} else if theta > after-angleEps && !swappedHere[pairKey(a, b)] {
			// Concurrent with the current angle: admit once.
			heap.Push(events, sweepEvent{theta: theta, itemA: a, itemB: b})
		}
	}
	for i := 0; i < n-1; i++ {
		pushAdjacent(i, iv.Lo+2*angleEps)
	}
	var regions []Region2D
	width := iv.Width()
	prev := iv.Lo
	for events.Len() > 0 {
		e := heap.Pop(events).(sweepEvent)
		i, j := pos[e.itemA], pos[e.itemB]
		if j != i+1 {
			continue // stale event: the pair is no longer adjacent
		}
		if e.theta > sweepAngle+2*angleEps {
			sweepAngle = e.theta
			clear(swappedHere)
		} else if swappedHere[pairKey(e.itemA, e.itemB)] {
			continue // already swapped at this concurrent angle
		}
		swappedHere[pairKey(e.itemA, e.itemB)] = true
		if e.theta > prev+angleEps {
			regions = append(regions, Region2D{
				Interval:  geom.Interval2D{Lo: prev, Hi: e.theta},
				Stability: (e.theta - prev) / width,
			})
			prev = e.theta
		}
		// Swap the pair in the order.
		l[i], l[j] = l[j], l[i]
		pos[e.itemA], pos[e.itemB] = j, i
		pushAdjacent(i-1, e.theta)
		pushAdjacent(j, e.theta)
	}
	if iv.Hi > prev+angleEps {
		regions = append(regions, Region2D{
			Interval:  geom.Interval2D{Lo: prev, Hi: iv.Hi},
			Stability: (iv.Hi - prev) / width,
		})
	}
	return regions, nil
}

// angleEps collapses exchanges closer than ~1e-12 radians into a single
// event boundary, avoiding zero-width sliver regions from floating-point
// ties.
const angleEps = 1e-12

// pairKey canonicalizes an unordered item pair.
func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Enumerator yields ranking regions in decreasing stability (GET-NEXT2D,
// Algorithm 3). The first construction performs the ray sweep; each Next is
// O(log R + n log n) where R is the number of regions.
type Enumerator struct {
	ds       *dataset.Dataset
	regions  regionHeap
	computer *rank.Computer // amortizes the per-Next ranking
}

type regionHeap []Region2D

func (h regionHeap) Len() int            { return len(h) }
func (h regionHeap) Less(i, j int) bool  { return h[i].Stability > h[j].Stability }
func (h regionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *regionHeap) Push(x interface{}) { *h = append(*h, x.(Region2D)) }
func (h *regionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewEnumerator runs the ray sweep and prepares the stability heap.
func NewEnumerator(ds *dataset.Dataset, iv geom.Interval2D) (*Enumerator, error) {
	regions, err := RaySweep(ds, iv)
	if err != nil {
		return nil, err
	}
	h := regionHeap(regions)
	heap.Init(&h)
	return &Enumerator{ds: ds, regions: h, computer: rank.NewComputer(ds)}, nil
}

// Result is one enumerated stable ranking.
type Result struct {
	Ranking   rank.Ranking
	Region    Region2D
	Stability float64
}

// Next returns the next most stable ranking, or ErrExhausted.
func (e *Enumerator) Next() (Result, error) {
	if e.regions.Len() == 0 {
		return Result{}, ErrExhausted
	}
	r := heap.Pop(&e.regions).(Region2D)
	return Result{
		Ranking:   e.computer.Compute(r.Midpoint()).Clone(),
		Region:    r,
		Stability: r.Stability,
	}, nil
}

// Remaining returns the number of regions not yet enumerated.
func (e *Enumerator) Remaining() int { return e.regions.Len() }

// EnumerateAll returns every feasible ranking in the region of interest with
// its exact stability, in decreasing stability order — the batch problem
// (Problem 2) solved exactly in 2D. Regions inducing the same ranking never
// occur (Theorem 1), so the result is also the distribution plotted in
// Figure 7.
func EnumerateAll(ds *dataset.Dataset, iv geom.Interval2D) ([]Result, error) {
	e, err := NewEnumerator(ds, iv)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, e.Remaining())
	for {
		r, err := e.Next()
		if errors.Is(err, ErrExhausted) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}
