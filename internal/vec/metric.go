package vec

import (
	"fmt"
	"math"
)

// Metric is a distance function on points. The paper's definition of NN-cells
// is parameterized over an arbitrary distance function d: R^d × R^d → R+; the
// LP-based MBR construction additionally requires the bisector of two points
// to be a hyperplane, which holds for the (optionally weighted) Euclidean
// metric. The tree indexes and the sequential scan work with any Metric.
type Metric interface {
	// Dist returns the distance between p and q.
	Dist(p, q Point) float64
	// Dist2 returns a monotone surrogate of Dist (for Euclidean: the squared
	// distance) that is cheaper to compute and safe to use for comparisons.
	Dist2(p, q Point) float64
	// MinDist2 returns the surrogate distance from p to the closest point of
	// the rectangle r (0 if p lies inside r). Used for branch-and-bound.
	MinDist2(p Point, r Rect) float64
	// Name identifies the metric in experiment output.
	Name() string
}

// Euclidean is the L2 metric, the paper's default.
type Euclidean struct{}

// Dist returns the Euclidean distance between p and q.
func (Euclidean) Dist(p, q Point) float64 { return math.Sqrt(Euclidean{}.Dist2(p, q)) }

// Dist2 returns the squared Euclidean distance between p and q.
func (Euclidean) Dist2(p, q Point) float64 {
	mustSameDim(len(p), len(q))
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// MinDist2 returns the squared Euclidean distance from p to rectangle r. The
// per-dimension term is max(lo-v, v-hi, 0)²: branch-free, and the same term
// MinDist2All adds, so the two kernels agree bitwise.
func (Euclidean) MinDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	lo, hi := r.Lo[:len(p)], r.Hi[:len(p)]
	s := 0.0
	for j, v := range p {
		d := max(lo[j]-v, v-hi[j], 0)
		s += d * d
	}
	return s
}

// Name implements Metric.
func (Euclidean) Name() string { return "L2" }

// WeightedEuclidean is a per-dimension weighted L2 metric, the standard
// adaptable-similarity metric in multimedia retrieval. Weights must be
// positive. Bisectors remain hyperplanes, so the NN-cell construction still
// applies after rescaling each axis by sqrt(w_i).
type WeightedEuclidean struct {
	Weights []float64
}

// NewWeightedEuclidean validates the weights and returns the metric.
func NewWeightedEuclidean(w []float64) (WeightedEuclidean, error) {
	for i, wi := range w {
		if wi <= 0 || math.IsNaN(wi) || math.IsInf(wi, 0) {
			return WeightedEuclidean{}, fmt.Errorf("vec: weight %d is %v, want positive finite", i, wi)
		}
	}
	return WeightedEuclidean{Weights: w}, nil
}

// Dist returns the weighted Euclidean distance between p and q.
func (m WeightedEuclidean) Dist(p, q Point) float64 { return math.Sqrt(m.Dist2(p, q)) }

// Dist2 returns the squared weighted Euclidean distance between p and q.
func (m WeightedEuclidean) Dist2(p, q Point) float64 {
	mustSameDim(len(p), len(q))
	mustSameDim(len(p), len(m.Weights))
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += m.Weights[i] * d * d
	}
	return s
}

// MinDist2 returns the weighted squared distance from p to rectangle r.
func (m WeightedEuclidean) MinDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	s := 0.0
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += m.Weights[i] * d * d
		case p[i] > r.Hi[i]:
			d := p[i] - r.Hi[i]
			s += m.Weights[i] * d * d
		}
	}
	return s
}

// Name implements Metric.
func (m WeightedEuclidean) Name() string { return "weighted-L2" }

// Manhattan is the L1 metric. Supported by the tree indexes and scan; not by
// the LP cell construction (L1 bisectors are not hyperplanes).
type Manhattan struct{}

// Dist returns the L1 distance between p and q.
func (Manhattan) Dist(p, q Point) float64 {
	mustSameDim(len(p), len(q))
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s
}

// Dist2 for L1 is the distance itself (already monotone and cheap).
func (Manhattan) Dist2(p, q Point) float64 { return Manhattan{}.Dist(p, q) }

// MinDist2 returns the L1 distance from p to rectangle r.
func (Manhattan) MinDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	s := 0.0
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			s += r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			s += p[i] - r.Hi[i]
		}
	}
	return s
}

// Name implements Metric.
func (Manhattan) Name() string { return "L1" }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Dist returns the L∞ distance between p and q.
func (Chebyshev) Dist(p, q Point) float64 {
	mustSameDim(len(p), len(q))
	s := 0.0
	for i := range p {
		if d := math.Abs(p[i] - q[i]); d > s {
			s = d
		}
	}
	return s
}

// Dist2 for L∞ is the distance itself.
func (Chebyshev) Dist2(p, q Point) float64 { return Chebyshev{}.Dist(p, q) }

// MinDist2 returns the L∞ distance from p to rectangle r.
func (Chebyshev) MinDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	s := 0.0
	for i := range p {
		d := 0.0
		switch {
		case p[i] < r.Lo[i]:
			d = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			d = p[i] - r.Hi[i]
		}
		if d > s {
			s = d
		}
	}
	return s
}

// Name implements Metric.
func (Chebyshev) Name() string { return "Linf" }

// MinMaxDist2 returns the squared MINMAXDIST of Roussopoulos et al. [RKV 95]
// from point p to rectangle r under the Euclidean metric: the smallest upper
// bound on the distance from p to the closest object contained in r. It is
// used by the branch-and-bound NN search to prune subtrees.
func MinMaxDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	// S = sum over all dims of max-edge contribution.
	total := 0.0
	rmSq := make([]float64, len(p)) // (p_k - rm_k)^2
	rMSq := make([]float64, len(p)) // (p_k - rM_k)^2
	for k := range p {
		rm := r.Lo[k]
		if p[k] <= (r.Lo[k]+r.Hi[k])/2 {
			rm = r.Lo[k]
		} else {
			rm = r.Hi[k]
		}
		rM := r.Lo[k]
		if p[k] >= (r.Lo[k]+r.Hi[k])/2 {
			rM = r.Lo[k]
		} else {
			rM = r.Hi[k]
		}
		d1 := p[k] - rm
		d2 := p[k] - rM
		rmSq[k] = d1 * d1
		rMSq[k] = d2 * d2
		total += rMSq[k]
	}
	best := math.Inf(1)
	for k := range p {
		v := total - rMSq[k] + rmSq[k]
		if v < best {
			best = v
		}
	}
	return best
}
