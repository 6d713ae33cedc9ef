package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestOrderingExchange(t *testing.T) {
	// Items t1 = (0.63, 0.71), t4 = (0.7, 0.68) from Figure 1 of the paper.
	t1 := Vector{0.63, 0.71}
	t4 := Vector{0.7, 0.68}
	h := OrderingExchange(t1, t4)
	// On the positive side t1 outranks t4. The exchange angle is
	// arctan((t4[0]-t1[0])/(t1[1]-t4[1])) per Equation 6.
	theta := math.Atan2(t4[0]-t1[0], t1[1]-t4[1])
	boundary := Ray2D(theta)
	if v := h.Eval(boundary); math.Abs(v) > 1e-9 {
		t.Errorf("exchange ray not on hyperplane, eval=%v", v)
	}
	// Left of the exchange (smaller angle... here t1 has higher x2 so t1 wins
	// at steep angles): check a function on each side scores consistently.
	fLow := Ray2D(theta - 0.05)
	fHigh := Ray2D(theta + 0.05)
	scoreLow1, scoreLow4 := fLow.Dot(t1), fLow.Dot(t4)
	if (h.Eval(fLow) > 0) != (scoreLow1 > scoreLow4) {
		t.Error("positive side does not correspond to t1 outranking t4 (low)")
	}
	scoreHigh1, scoreHigh4 := fHigh.Dot(t1), fHigh.Dot(t4)
	if (h.Eval(fHigh) > 0) != (scoreHigh1 > scoreHigh4) {
		t.Error("positive side does not correspond to t1 outranking t4 (high)")
	}
}

func TestIsDegenerate(t *testing.T) {
	if !(Hyperplane{Normal: Vector{0, 0, 0}}).IsDegenerate() {
		t.Error("zero normal not flagged degenerate")
	}
	if (Hyperplane{Normal: Vector{1e-3, 0}}).IsDegenerate() {
		t.Error("nonzero normal flagged degenerate")
	}
	a := Vector{0.5, 0.5}
	if !OrderingExchange(a, a.Clone()).IsDegenerate() {
		t.Error("exchange of identical items should be degenerate")
	}
}

func TestHalfspaceContains(t *testing.T) {
	hs := Halfspace{Normal: Vector{1, -2}, Positive: true}
	if !hs.Contains(Vector{3, 1}, 0) {
		t.Error("interior point rejected")
	}
	if hs.Contains(Vector{1, 3}, 0) {
		t.Error("exterior point accepted")
	}
	neg := Halfspace{Normal: Vector{1, -2}, Positive: false}
	if !neg.Contains(Vector{1, 3}, 0) {
		t.Error("negative halfspace rejected its interior")
	}
	if got := neg.Oriented(); !got.Equal(Vector{-1, 2}, 0) {
		t.Errorf("Oriented = %v", got)
	}
}

func TestMayIntersectCone(t *testing.T) {
	axis := Vector{1, 1, 1}.MustNormalize()
	// A hyperplane through the axis always intersects.
	through := Hyperplane{Normal: Vector{1, -1, 0}}
	if !through.MayIntersectCone(axis, 0.01) {
		t.Error("hyperplane containing axis should intersect any cone")
	}
	// A hyperplane whose normal is the axis touches the cap only for
	// theta >= pi/2.
	normalIsAxis := Hyperplane{Normal: axis}
	if normalIsAxis.MayIntersectCone(axis, 0.3) {
		t.Error("orthogonal-to-axis hyperplane should miss a narrow cone")
	}
	if !normalIsAxis.MayIntersectCone(axis, math.Pi/2) {
		t.Error("orthogonal-to-axis hyperplane should touch the hemisphere boundary")
	}
}

// Property: for random item pairs, the sign of the exchange evaluation at w
// equals the sign of the score difference.
func TestExchangeSignMatchesScoreDifference(t *testing.T) {
	rr := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		d := 2 + rr.Intn(5)
		a, b := randVec(rr, d), randVec(rr, d)
		w := make(Vector, d)
		for j := range w {
			w[j] = rr.Float64()
		}
		h := OrderingExchange(a, b)
		diff := w.Dot(a) - w.Dot(b)
		if math.Abs(diff) < 1e-9 {
			continue
		}
		if (h.Eval(w) > 0) != (diff > 0) {
			t.Fatalf("exchange sign mismatch: eval=%v scoreDiff=%v", h.Eval(w), diff)
		}
	}
}
