package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"stablerank/internal/geom"
	"stablerank/internal/stats"
)

// Cap samples uniformly from the spherical cap of half-angle theta around a
// reference ray (Algorithm 11). The polar angle from the cap centre is drawn
// by inverse CDF — the closed form of Equation 15 for d = 3, the trivial
// uniform angle for d = 2, and the Riemann-sum table of Algorithm 10
// otherwise — then combined with a uniform direction on the (d-2)-sphere and
// rotated so the cap centre falls on the reference ray (Algorithm 13 /
// Appendix A).
//
// Because the paper's regions of interest are cones intersected with the
// non-negative orthant, samples falling outside the orthant (possible when
// the cap overhangs an axis plane) are rejected and redrawn.
type Cap struct {
	cone     geom.Cone
	rng      *rand.Rand
	rot      geom.Rotation
	table    *stats.RiemannTable // nil when a closed form applies
	maxTries int
	buf      geom.Vector // pre-rotation scratch point, reused across draws
}

// DefaultRiemannPartitions is the table resolution gamma used by NewCap for
// d > 3; the paper suggests O(n) partitions, 4096 keeps inverse-CDF error
// ~1e-4 radians for any theta <= pi/2.
const DefaultRiemannPartitions = 4096

// NewCap returns a uniform sampler over cone (intersected with the
// non-negative orthant).
func NewCap(cone geom.Cone, rng *rand.Rand) (*Cap, error) {
	if rng == nil {
		return nil, errors.New("sampling: nil rng")
	}
	d := cone.Dim()
	if d < 2 {
		return nil, fmt.Errorf("sampling: cone dimension %d < 2", d)
	}
	if cone.Theta <= 0 || cone.Theta > math.Pi/2 {
		return nil, fmt.Errorf("sampling: cone half-angle %v out of (0, pi/2]", cone.Theta)
	}
	rot, err := geom.NewAxisRotation(cone.Axis)
	if err != nil {
		return nil, err
	}
	c := &Cap{cone: cone, rng: rng, rot: rot, maxTries: DefaultRejectionBudget, buf: make(geom.Vector, d)}
	if d > 3 {
		tab, err := stats.NewRiemannTable(d, cone.Theta, DefaultRiemannPartitions)
		if err != nil {
			return nil, err
		}
		c.table = tab
	}
	return c, nil
}

// Dim returns the ambient dimension.
func (c *Cap) Dim() int { return c.cone.Dim() }

// polarAngle draws the angle from the cap centre with the density
// proportional to sin^{d-2}, by inverse CDF.
func (c *Cap) polarAngle() float64 {
	y := c.rng.Float64()
	d := c.cone.Dim()
	switch {
	case d == 2:
		// sin^0 = 1: the angle is uniform on [-theta, theta]; the sign is
		// the 0-sphere direction chosen in Sample.
		return y * c.cone.Theta
	case d == 3:
		return stats.CapCDF3DInverse(y, c.cone.Theta) // Equation 15
	default:
		return c.table.InverseCDF(y)
	}
}

// Sample draws a uniform point on the cap, rejecting draws outside the
// non-negative orthant.
func (c *Cap) Sample() (geom.Vector, error) {
	w := make(geom.Vector, c.cone.Dim())
	if err := c.SampleInto(w); err != nil {
		return nil, err
	}
	return w, nil
}

// SampleInto is Sample writing into dst (see IntoSampler): the
// pre-rotation point lives in a reused scratch buffer and the rotation
// writes straight into dst, so a draw performs no allocation.
func (c *Cap) SampleInto(dst geom.Vector) error {
	d := c.cone.Dim()
	if len(dst) != d {
		return fmt.Errorf("sampling: buffer dimension %d != sampler dimension %d", len(dst), d)
	}
	for try := 0; try < c.maxTries; try++ {
		x := c.polarAngle()
		p := c.buf
		if d == 2 {
			// The (d-2)-sphere is two points: choose the side at random.
			if c.rng.Intn(2) == 0 {
				x = -x
			}
			p[0] = math.Sin(x)
			p[1] = math.Cos(x)
		} else {
			// Uniform direction on the (d-2)-sphere in the first d-1
			// coordinates (normalized normals, Section 5.1), scaled by
			// sin(x); the cap axis (d-th coordinate) carries cos(x).
			var norm2 float64
			for i := 0; i < d-1; i++ {
				g := c.rng.NormFloat64()
				p[i] = g
				norm2 += g * g
			}
			if norm2 < 1e-24 {
				continue
			}
			scale := math.Sin(x) / math.Sqrt(norm2)
			for i := 0; i < d-1; i++ {
				p[i] *= scale
			}
			p[d-1] = math.Cos(x)
		}
		c.rot.ApplyTo(dst, p)
		if dst.NonNegative(geom.Eps) {
			// Clamp the numerically-negligible negatives introduced by the
			// rotation so downstream orthant checks see clean values.
			for i := range dst {
				if dst[i] < 0 {
					dst[i] = 0
				}
			}
			return nil
		}
	}
	return fmt.Errorf("%w (cap outside orthant too often)", ErrRejectionBudget)
}

// ForRegion returns an unbiased sampler for the given region of interest,
// choosing the specialized cap sampler for cones, the direct sampler for the
// full space, and acceptance-rejection from U for anything else (e.g.
// constraint regions).
func ForRegion(region geom.Region, rng *rand.Rand) (Sampler, error) {
	switch t := region.(type) {
	case geom.FullSpace:
		return NewUniform(t.D, rng)
	case geom.Cone:
		return NewCap(t, rng)
	case geom.Interval2D:
		cone, err := geom.NewCone(geom.Ray2D((t.Lo+t.Hi)/2), math.Max((t.Hi-t.Lo)/2, 1e-12))
		if err != nil {
			return nil, err
		}
		return NewCap(cone, rng)
	default:
		u, err := NewUniform(region.Dim(), rng)
		if err != nil {
			return nil, err
		}
		return NewRejection(u, region, 0)
	}
}

// RejectionCost is the expected number of proposals per accepted sample when
// rejecting from the full space U into a cap of half-angle theta in R^d: the
// area ratio of U to the cap portion inside the orthant is bounded below by
// the U-to-cap ratio, which Equation 13 gives in closed form.
func RejectionCost(d int, theta float64) float64 {
	area := geom.CapArea(d, theta)
	if area <= 0 {
		return math.Inf(1)
	}
	return geom.OrthantArea(d) / area
}
