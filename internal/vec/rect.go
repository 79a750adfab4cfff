package vec

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-parallel hyper-rectangle (an MBR in index terminology),
// closed on all sides: {x | Lo[i] <= x[i] <= Hi[i] for all i}. A Rect with
// Lo[i] > Hi[i] in any dimension is empty; EmptyRect constructs the canonical
// empty rectangle used as the identity element of Union.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given corners. It panics if the corner
// dimensionalities differ (programming error).
func NewRect(lo, hi Point) Rect {
	mustSameDim(len(lo), len(hi))
	return Rect{Lo: lo, Hi: hi}
}

// EmptyRect returns the canonical empty rectangle of dimensionality d
// (Lo = +inf, Hi = -inf), the identity element of Union.
func EmptyRect(d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// UnitCube returns [0,1]^d, the canonical data space of the paper.
func UnitCube(d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		hi[i] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect { return Rect{Lo: p.Clone(), Hi: p.Clone()} }

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect { return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()} }

// IsEmpty reports whether r contains no point.
func (r Rect) IsEmpty() bool {
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Equal reports whether r and s are identical.
func (r Rect) Equal(s Rect) bool { return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi) }

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	mustSameDim(r.Dim(), len(p))
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s is entirely inside r. An empty s is contained
// in everything.
func (r Rect) ContainsRect(s Rect) bool {
	mustSameDim(r.Dim(), s.Dim())
	if s.IsEmpty() {
		return true
	}
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	mustSameDim(r.Dim(), s.Dim())
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// IntersectsSphere reports whether r intersects the closed Euclidean ball
// around center with the given radius.
func (r Rect) IntersectsSphere(center Point, radius float64) bool {
	return Euclidean{}.MinDist2(center, r) <= radius*radius
}

// Union returns the MBR of r and s.
func (r Rect) Union(s Rect) Rect {
	mustSameDim(r.Dim(), s.Dim())
	out := r.Clone()
	for i := range out.Lo {
		if s.Lo[i] < out.Lo[i] {
			out.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > out.Hi[i] {
			out.Hi[i] = s.Hi[i]
		}
	}
	return out
}

// UnionInPlace extends r to cover s without allocating.
func (r *Rect) UnionInPlace(s Rect) {
	mustSameDim(r.Dim(), s.Dim())
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// ExtendPoint grows r to cover p without allocating.
func (r *Rect) ExtendPoint(p Point) {
	mustSameDim(r.Dim(), len(p))
	for i := range p {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// Intersect returns the common part of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	mustSameDim(r.Dim(), s.Dim())
	out := r.Clone()
	for i := range out.Lo {
		if s.Lo[i] > out.Lo[i] {
			out.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] < out.Hi[i] {
			out.Hi[i] = s.Hi[i]
		}
	}
	return out
}

// Volume returns the d-dimensional volume of r (0 if empty or degenerate).
func (r Rect) Volume() float64 {
	if r.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// IntersectionVolume returns the volume of r ∩ s without allocating.
func (r Rect) IntersectionVolume(s Rect) float64 {
	mustSameDim(r.Dim(), s.Dim())
	v := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// EnlargedVolume returns the volume of the MBR of r and s without allocating.
func (r Rect) EnlargedVolume(s Rect) float64 {
	mustSameDim(r.Dim(), s.Dim())
	v := 1.0
	for i := range r.Lo {
		lo := math.Min(r.Lo[i], s.Lo[i])
		hi := math.Max(r.Hi[i], s.Hi[i])
		if hi < lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Margin returns the sum of the edge lengths of r (the R*-tree split
// heuristic's "margin"; in 2-D this is half the perimeter).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	c := make(Point, r.Dim())
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Extent returns Hi[i] - Lo[i].
func (r Rect) Extent(i int) float64 { return r.Hi[i] - r.Lo[i] }

// LongestDim returns the dimension with the largest extent.
func (r Rect) LongestDim() int {
	best, bestExt := 0, math.Inf(-1)
	for i := range r.Lo {
		if e := r.Extent(i); e > bestExt {
			best, bestExt = i, e
		}
	}
	return best
}

// Clip returns r intersected with bounds; a convenience alias used when
// restricting cells to the data space.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

// ClampInPlace moves p coordinate-wise to the nearest point inside r. It is
// the projection used by the out-of-bounds query fallback: for a point outside
// the data space, the clamped point is the closest in-space location.
func (r Rect) ClampInPlace(p Point) {
	mustSameDim(r.Dim(), len(p))
	for i := range p {
		if p[i] < r.Lo[i] {
			p[i] = r.Lo[i]
		} else if p[i] > r.Hi[i] {
			p[i] = r.Hi[i]
		}
	}
}

// ContainsFlat reports whether p lies in the rectangle stored at lo/hi, two
// flat coordinate slices of length len(p). This is the SoA form of
// Rect.Contains used by the flat leaf layout of the tree indexes: the
// coordinates of consecutive entries are contiguous in memory, so a scan over
// a node touches cache lines linearly and exits on the first separating
// dimension.
func ContainsFlat(p Point, lo, hi []float64) bool {
	lo = lo[:len(p)]
	hi = hi[:len(p)]
	for i, v := range p {
		if v < lo[i] || v > hi[i] {
			return false
		}
	}
	return true
}

// IntersectsFlat reports whether the rectangle stored at lo/hi intersects s.
// The SoA form of Rect.Intersects.
func IntersectsFlat(s Rect, lo, hi []float64) bool {
	lo = lo[:len(s.Lo)]
	hi = hi[:len(s.Lo)]
	for i := range s.Lo {
		if lo[i] > s.Hi[i] || s.Lo[i] > hi[i] {
			return false
		}
	}
	return true
}

// Dist2Flat returns the squared Euclidean distance between p and the point
// stored at q, a flat coordinate slice of length len(p). Same operations in
// the same order as Euclidean.Dist2, so results are bitwise identical; used
// against SoA point mirrors where consecutive points are contiguous.
func Dist2Flat(p Point, q []float64) float64 {
	q = q[:len(p)]
	s := 0.0
	for i, v := range p {
		d := v - q[i]
		s += d * d
	}
	return s
}

// MinDist2All writes to out[i] the squared Euclidean distance from p to
// rectangle i of a dimension-major SoA mirror holding len(out) rectangles:
// dimension j of rectangle i lives at lo[j*len(out)+i] / hi[j*len(out)+i].
// It walks the mirror one dimension at a time, so the loads are sequential,
// and adds the same branch-free term max(lo-v, v-hi, 0)² in the same
// dimension order as Euclidean.MinDist2, so results are bitwise identical.
func MinDist2All(p Point, lo, hi []float64, out []float64) {
	m := len(out)
	v := p[0]
	lo0, hi0 := lo[:m], hi[:m]
	for i := range out {
		d := max(lo0[i]-v, v-hi0[i], 0)
		out[i] = d * d
	}
	for j := 1; j < len(p); j++ {
		v := p[j]
		blo := lo[j*m : (j+1)*m]
		bhi := hi[j*m : (j+1)*m]
		for i := range out {
			d := max(blo[i]-v, v-bhi[i], 0)
			out[i] += d * d
		}
	}
}

// Dist2All is MinDist2All for a mirror of points (every rectangle has
// lo == hi): out[i] is the squared Euclidean distance from p to point i of
// the dimension-major mirror pts, whose dimension j of point i lives at
// pts[j*len(out)+i]. Per coordinate it makes one load, one subtraction and
// one multiply. (lo-v)² equals max(lo-v, v-lo, 0)² bit for bit (the two
// differences are exact negations and squaring drops the sign), and the
// dimension order is the same, so on degenerate rectangles the results are
// bitwise those of MinDist2All.
func Dist2All(p Point, pts []float64, out []float64) {
	m := len(out)
	v := p[0]
	for i, x := range pts[:m] {
		d := x - v
		out[i] = d * d
	}
	for j := 1; j < len(p); j++ {
		v := p[j]
		col := pts[j*m : (j+1)*m]
		for i := range out {
			d := col[i] - v
			out[i] += d * d
		}
	}
}

// SplitAt cuts r at coordinate c in dimension dim and returns the lower and
// upper parts. The cut is clamped to r's extent, so one part may be
// degenerate (zero extent) but never inverted.
func (r Rect) SplitAt(dim int, c float64) (lower, upper Rect) {
	c = math.Max(r.Lo[dim], math.Min(r.Hi[dim], c))
	lower = r.Clone()
	upper = r.Clone()
	lower.Hi[dim] = c
	upper.Lo[dim] = c
	return lower, upper
}

// String renders the rectangle as "[lo .. hi]".
func (r Rect) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%v .. %v]", r.Lo, r.Hi)
	return b.String()
}
