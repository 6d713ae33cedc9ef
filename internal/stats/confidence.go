package stats

import "math"

// Confidence machinery for the randomized GET-NEXT operators
// (Sections 4.4-4.5). Stability estimates are sample means of Bernoulli
// variables; the paper uses the central limit theorem with the plug-in
// standard deviation s = sqrt(m(1-m)) and the Z-table to bound the
// confidence error e = Z(1-alpha/2) * sqrt(m(1-m)/N)  (Equation 10).

// ConfidenceError returns the half-width e of the 1-alpha confidence
// interval around the sample proportion m after n samples (Equation 10).
// n must be positive; m is clamped to [0, 1].
//
// At the boundaries m = 0 and m = 1 the plug-in variance m(1-m) degenerates
// and Equation 10 claims a zero-width interval — after a single sample with
// zero hits it would report certainty. There the Wilson score half-width
// z^2/(n + z^2) is returned instead: for zero observed hits the Wilson upper
// bound is exactly z^2/(n + z^2) (the continuity-corrected cousin of the
// rule of three), which shrinks like 1/n instead of collapsing to 0.
// Interior proportions are untouched, so the function still agrees with the
// paper everywhere its formula is well-behaved.
func ConfidenceError(m float64, n int, alpha float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	if m < 0 {
		m = 0
	}
	if m > 1 {
		m = 1
	}
	z := ZForConfidence(alpha)
	if m == 0 || m == 1 {
		return z * z / (float64(n) + z*z)
	}
	return z * math.Sqrt(m*(1-m)/float64(n))
}
