package main

import (
	"math"
	"sort"
	"sync"

	"repro/internal/vec"
)

// oracle is the flat scan every answer is checked against.
type oracle struct {
	d   int
	pts []float64 // row-major coordinates
}

func newOracle(pts []vec.Point) *oracle {
	o := &oracle{d: pts[0].Dim(), pts: make([]float64, 0, len(pts)*pts[0].Dim())}
	for _, p := range pts {
		o.pts = append(o.pts, p...)
	}
	return o
}

func (o *oracle) dist2(q vec.Point, i int) float64 {
	row := o.pts[i*o.d : (i+1)*o.d]
	s := 0.0
	for j, v := range row {
		t := q[j] - v
		s += t * t
	}
	return s
}

// nearest returns the smallest squared distance from q to the point set.
func (o *oracle) nearest(q vec.Point) float64 {
	best := math.Inf(1)
	for i, n := 0, len(o.pts)/o.d; i < n; i++ {
		if d2 := o.dist2(q, i); d2 < best {
			best = d2
		}
	}
	return best
}

// kNearest returns the k smallest squared distances, ascending.
func (o *oracle) kNearest(q vec.Point, k int) []float64 {
	best := make([]float64, 0, k+1)
	for i, n := 0, len(o.pts)/o.d; i < n; i++ {
		d2 := o.dist2(q, i)
		if len(best) == k && d2 >= best[k-1] {
			continue
		}
		j := sort.SearchFloat64s(best, d2)
		best = append(best, 0)
		copy(best[j+1:], best[j:])
		best[j] = d2
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// sameDist compares squared distances up to summation-order rounding.
func sameDist(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(want, 1e-300)
}

// check is one sampled answer: the squared distances the server returned
// for q (one for /v1/nn, k for /v1/knn).
type check struct {
	q   vec.Point
	got []float64
}

func knnCheck(q vec.Point, rep *reply) check {
	c := check{q: q, got: make([]float64, len(rep.Neighbors))}
	for i, nb := range rep.Neighbors {
		c.got[i] = nb.Dist2
	}
	return c
}

// verify returns how many sampled answers disagree with the scan; two
// goroutines share the work.
func (o *oracle) verify(checks []check, k int) int {
	var wrong [2]int
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(checks); i += 2 {
				c := checks[i]
				var want []float64
				if len(c.got) == 1 {
					want = []float64{o.nearest(c.q)}
				} else {
					want = o.kNearest(c.q, k)
				}
				if !sameDists(c.got, want) {
					wrong[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	return wrong[0] + wrong[1]
}

func sameDists(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !sameDist(got[i], want[i]) {
			return false
		}
	}
	return true
}

// poolOracle answers every hot-pool point with the scan.
func (o *oracle) poolOracle(pool []vec.Point) poolAnswers {
	out := make(poolAnswers, len(pool))
	for i, p := range pool {
		out[i] = o.nearest(p)
	}
	return out
}

// finalChecks runs after the churn stops: every acknowledged insert still
// live must come back at distance 0 under its id, every acknowledged
// delete must be gone, and a query sample must match a scan of the final
// live set. It returns the answers attempted and the failures among them.
func finalChecks(addr string, initial []vec.Point, wr *writer, queries []vec.Point) (attempted, failed int) {
	live := append(append([]vec.Point(nil), initial...), pointsOf(wr.live)...)
	o := newOracle(live)
	c := newConn(addr, nil)
	defer c.close()
	tl := &tally{}
	var rep reply
	for _, a := range wr.live {
		err := c.nn(a.p, &rep)
		if tl.outcome(err, &rep) && (rep.ID != a.id || rep.Dist2 != 0) {
			tl.failed++
		}
	}
	for _, a := range wr.deleted {
		err := c.nn(a.p, &rep)
		if tl.outcome(err, &rep) && (rep.ID == a.id || rep.Dist2 == 0 || !sameDist(rep.Dist2, o.nearest(a.p))) {
			tl.failed++
		}
	}
	for _, q := range queries {
		err := c.nn(q, &rep)
		if tl.outcome(err, &rep) && !sameDist(rep.Dist2, o.nearest(q)) {
			tl.failed++
		}
	}
	return tl.attempted, tl.failed
}

func pointsOf(as []acked) []vec.Point {
	out := make([]vec.Point, len(as))
	for i, a := range as {
		out[i] = a.p
	}
	return out
}
