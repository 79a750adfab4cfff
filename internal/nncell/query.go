package nncell

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
	"repro/internal/xtree"
)

// Neighbor is one (k-)NN result: a point id and the squared distance.
type Neighbor struct {
	ID    int
	Dist2 float64
}

// QueryCtx is the reusable per-query scratch of the read path: the iterative
// traversal state and inline heaps for both backing X-trees, the k-NN result
// buffer, and the clamp buffer of the out-of-bounds fallback. A warm context
// makes NearestNeighbor, CandidatesAppend and the fallback path allocation-
// free. Contexts are pooled per index (acquireCtx/releaseCtx) for the public
// entry points and held per worker by NearestNeighborBatch. A QueryCtx is
// not safe for concurrent use.
type QueryCtx struct {
	tc    xtree.QueryCtx   // cell-tree traversal scratch
	dc    xtree.QueryCtx   // data-tree traversal scratch (tree engine, bounded search, k-NN, fallback)
	ids   []int64          // cell point-query candidate buffer
	nbrs  []xtree.Neighbor // data-tree result buffer
	clamp vec.Point        // clamp-to-bounds buffer of the fallback
}

// acquireCtx takes a context from the index's pool (allocating only when the
// pool is empty, i.e. on cold paths).
func (ix *Index) acquireCtx() *QueryCtx {
	if qc, ok := ix.ctxPool.Get().(*QueryCtx); ok {
		return qc
	}
	return &QueryCtx{}
}

// releaseCtx returns a context to the pool for reuse.
func (ix *Index) releaseCtx(qc *QueryCtx) { ix.ctxPool.Put(qc) }

// Engine identifies the exact search that answered a nearest-neighbor query.
// Every engine returns the same answer (the closest live point, distance ties
// broken toward the lowest id); they differ only in cost.
type Engine int

const (
	// EngineCell is the paper's point query on the cell tree plus candidate
	// refinement (with the clamp-and-verify fallback outside the cells):
	// NearestNeighborCell.
	EngineCell Engine = iota
	// EngineTree is best-first search [HS 95] on the data X-tree, k = 1:
	// NearestNeighbor, KNearest with k = 1, NearestWithin with bound +Inf.
	EngineTree
	// EngineBounded is best-first search on the data X-tree pruned by a
	// caller's inclusive distance bound (NearestWithin with a finite bound:
	// the later shards of a sharded query).
	EngineBounded
	// NumEngines sizes per-engine counter arrays.
	NumEngines
)

var engineNames = [NumEngines]string{"cell", "tree", "bounded"}

// String returns the engine's metric label.
func (e Engine) String() string { return engineNames[e] }

// NearestNeighbor answers an exact nearest-neighbor query by best-first
// search on the data X-tree, distance ties broken toward the lowest id. The
// serving paths use it: at the serve shape (grid-sharded, NN-Direction
// cells, d >= 4) the cells overlap enough that the tree answers in a
// fraction of the cell engine's time (Fig. 10; EXPERIMENTS.md "Exact engine
// crossover"). NearestNeighborCell is the paper's cell engine and returns
// the same answer. The traversal runs on a pooled QueryCtx; the warm path
// performs no allocations.
func (ix *Index) NearestNeighbor(q vec.Point) (Neighbor, error) {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nearestLocked(qc, q)
}

// NearestNeighborCell answers q with the cell engine: a point query on the
// cell index retrieves every approximation containing q, and the true
// nearest neighbor is the closest of those candidate points (Lemma 2: no
// false dismissals), ties broken toward the lowest id. Queries outside the
// data space — where NN-cells do not tile — and the (numerically
// pathological, counted) empty-candidate case take the clamp-and-verify
// fallback, which stays exact and sub-linear. The reproduction experiments
// time it as "NN-cell"; it is allocation-free when warm.
func (ix *Index) NearestNeighborCell(q vec.Point) (Neighbor, error) {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.alive == 0 {
		return Neighbor{}, ErrEmpty
	}
	ix.stats.queries.Add(1)
	ix.stats.engines[EngineCell].Add(1)
	return ix.cellNearest(qc, q), nil
}

// NearestWithin returns the closest live point to q whose squared distance is
// at most bound (inclusive), ties broken toward the lowest id; ok is false
// when there is none, in particular on an empty index. A sharded query
// passes its best distance so far, and the shard then only verifies that
// nothing closer (or equally close with a lower id) exists. bound = +Inf is
// NearestNeighbor.
func (ix *Index) NearestWithin(q vec.Point, bound float64) (nb Neighbor, ok bool) {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nearestWithinLocked(qc, q, bound)
}

// nearestLocked is the shared NN core; callers hold ix.mu (read side) and
// provide the scratch context.
func (ix *Index) nearestLocked(qc *QueryCtx, q vec.Point) (Neighbor, error) {
	nb, ok := ix.nearestWithinLocked(qc, q, math.Inf(1))
	if !ok {
		return Neighbor{}, ErrEmpty
	}
	return nb, nil
}

// nearestWithinLocked is NearestWithin under ix.mu (read side). It counts one
// query and the engine that answered it: bounded for a finite bound, tree
// otherwise.
func (ix *Index) nearestWithinLocked(qc *QueryCtx, q vec.Point, bound float64) (Neighbor, bool) {
	if ix.alive == 0 {
		return Neighbor{}, false
	}
	ix.stats.queries.Add(1)
	e := EngineTree
	if bound < math.Inf(1) {
		e = EngineBounded
	}
	ix.stats.engines[e].Add(1)
	nb := ix.treeNearest(qc, q, bound)
	return nb, nb.ID >= 0
}

// cellNearest is the cell engine.
func (ix *Index) cellNearest(qc *QueryCtx, q vec.Point) Neighbor {
	if !ix.bounds.Contains(q) {
		ix.stats.fallbacks.Add(1)
		return ix.fallbackNearest(qc, q)
	}
	// The fused tree call folds the candidate-distance minimum into the point
	// query itself, reading coordinates from the SoA mirror. Dead ids never
	// appear among the matches: Delete removes every fragment of a cell from
	// the tree before tombstoning the point (removeFragments), so the mirror's
	// stale tombstone rows are unreachable here.
	data, d2, seen, ok := ix.tree.NearestCandidate(&qc.tc, q, ix.ptsFlat)
	ix.stats.candidates.Add(uint64(seen))
	if !ok {
		ix.stats.fallbacks.Add(1)
		return ix.fallbackNearest(qc, q)
	}
	return Neighbor{ID: int(data), Dist2: d2}
}

// treeNearest is best-first search on the data X-tree for the closest live
// point within the inclusive bound (ID -1 when there is none). The data tree
// holds exactly the live points, and KNearestCtx breaks distance ties toward
// the smaller payload, which is the point id. Its leaf distance evaluations
// count as candidates: the refinement work of this engine.
func (ix *Index) treeNearest(qc *QueryCtx, q vec.Point, bound float64) Neighbor {
	qc.nbrs = ix.dataIdx.KNearestCtx(&qc.dc, q, 1, bound, qc.nbrs[:0])
	ix.stats.candidates.Add(uint64(qc.dc.LeafEvals()))
	if len(qc.nbrs) == 0 {
		return Neighbor{ID: -1, Dist2: math.Inf(1)}
	}
	return Neighbor{ID: int(qc.nbrs[0].Entry.Data), Dist2: qc.nbrs[0].Dist2}
}

// fallbackNearest answers queries the cell point query cannot: points outside
// the data space (NN-cells only tile the space) and in-space points that fall
// into an epsilon gap between stored approximations. It replaces the seed's
// O(n) sequential scan with two index operations:
//
//  1. Clamp q into the data space and run the cell point query there. The
//     clamped point is tiled by NN-cells, so this almost always yields a
//     candidate, whose distance (measured from the original q) is an upper
//     bound on the NN distance.
//  2. Run the best-first search of [HS 95] on the data X-tree, pruned by
//     that bound. The search is exact, so the result is the true nearest
//     neighbor; the seed bound typically reduces it to a single root-to-leaf
//     verification descent.
func (ix *Index) fallbackNearest(qc *QueryCtx, q vec.Point) Neighbor {
	if cap(qc.clamp) < len(q) {
		qc.clamp = make(vec.Point, len(q))
	}
	qc.clamp = qc.clamp[:len(q)]
	copy(qc.clamp, q)
	ix.bounds.ClampInPlace(qc.clamp)

	bound := math.Inf(1)
	d := ix.dim
	qc.ids = ix.tree.PointQueryData(&qc.tc, qc.clamp, qc.ids[:0])
	for _, id64 := range qc.ids {
		id := int(id64)
		if ix.points[id] == nil {
			continue
		}
		// Distance from the original query point, via the SoA mirror.
		bound = min(bound, vec.Dist2Flat(q, ix.ptsFlat[id*d:(id+1)*d]))
	}
	// Exact verification: the bound is inclusive and the seed candidate is a
	// live point of the data tree, so the search always finds the closest
	// point (lowest id among ties); an empty seed (bound = +Inf) degenerates
	// to an unbounded search.
	return ix.treeNearest(qc, q, bound)
}

// Candidates returns the distinct point ids whose stored approximation
// contains q — the paper's overlap measure in query form (1 distinct
// candidate = the perfect multidimensional-uniform case).
func (ix *Index) Candidates(q vec.Point) []int { return ix.CandidatesAppend(nil, q) }

// CandidatesAppend appends the distinct candidate ids for q to dst and
// returns it. Passing a reused slice makes the warm path allocation-free.
// Like every query entry point it counts one query and the inspected
// candidates in the index stats.
func (ix *Index) CandidatesAppend(dst []int, q vec.Point) []int {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.stats.queries.Add(1)
	start := len(dst)
	seen := 0
	qc.ids = ix.tree.PointQueryData(&qc.tc, q, qc.ids[:0])
	for _, id64 := range qc.ids {
		id := int(id64)
		if ix.points[id] == nil {
			continue
		}
		seen++
		// Candidate sets are small (the paper's overlap measure is ~1 for
		// good approximations), so a linear dedup over the result slice
		// beats allocating a map per query.
		dup := false
		for _, have := range dst[start:] {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, id)
		}
	}
	ix.stats.candidates.Add(uint64(seen))
	return dst
}

// KNearest answers an exact k-nearest-neighbor query. k-NN via order-k cells
// is the paper's stated future work; this implementation answers k = 1
// like NearestNeighbor (data-tree best-first search) and larger k through the
// embedded data X-tree (exact best-first search), so the index is usable as
// a drop-in k-NN structure either way.
//
// k <= 0 returns ErrBadK without touching the index or its stats; if k
// exceeds the number of live points the result is exactly the live set
// (tombstones excluded), sorted by (distance, id). Every locked path holds the
// read lock once and counts exactly one query.
func (ix *Index) KNearest(q vec.Point, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w (got k=%d)", ErrBadK, k)
	}
	out, err := ix.KNearestAppend(make([]Neighbor, 0, k), q, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KNearestAppend is KNearest appending into a caller-owned slice, so callers
// that loop (the sharded merge, batch drivers) can keep the warm path
// allocation-free. Results are appended ascending by (Dist2, ID); dst is
// returned unchanged on error.
func (ix *Index) KNearestAppend(dst []Neighbor, q vec.Point, k int) ([]Neighbor, error) {
	return ix.KNearestWithinAppend(dst, q, k, math.Inf(1))
}

// KNearestWithinAppend is KNearestAppend restricted to points whose squared
// distance is at most bound (inclusive): it appends the up to k nearest of
// them, so the result may be shorter than k, or empty. A sharded k-NN query
// passes the k-th distance of its merge heap once the heap is full. k = 1
// takes the NearestWithin path; larger k run best-first search on the data
// X-tree, which holds exactly the live points.
func (ix *Index) KNearestWithinAppend(dst []Neighbor, q vec.Point, k int, bound float64) ([]Neighbor, error) {
	if k <= 0 {
		return dst, fmt.Errorf("%w (got k=%d)", ErrBadK, k)
	}
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.alive == 0 {
		return dst, ErrEmpty
	}
	if k == 1 {
		if nb, ok := ix.nearestWithinLocked(qc, q, bound); ok {
			dst = append(dst, nb)
		}
		return dst, nil
	}
	ix.stats.queries.Add(1)
	qc.nbrs = ix.dataIdx.KNearestCtx(&qc.dc, q, k, bound, qc.nbrs[:0])
	for _, nb := range qc.nbrs {
		dst = append(dst, Neighbor{ID: int(nb.Entry.Data), Dist2: nb.Dist2})
	}
	return dst, nil
}

// NearestNeighborBatch answers many NN queries concurrently with the given
// parallelism (0 = GOMAXPROCS). Results are positionally aligned with the
// queries. Exploiting parallelism for similarity search is the approach of
// the authors' companion paper [Ber+ 97]; the NN-cell index supports it
// directly because queries only take the read side of the index lock. Each
// worker owns one QueryCtx for its whole run, so the steady state allocates
// nothing regardless of batch size.
func (ix *Index) NearestNeighborBatch(qs []vec.Point, workers int) ([]Neighbor, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	out := make([]Neighbor, len(qs))
	errs := make([]error, workers)
	var next atomic.Int64
	var failed atomic.Bool // fail-fast: one worker's error cancels the batch
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			qc := ix.acquireCtx()
			defer ix.releaseCtx(qc)
			for {
				// The whole batch fails on the first error, so once any
				// worker has failed the remaining results would be thrown
				// away; stop computing them.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				ix.mu.RLock()
				nb, err := ix.nearestLocked(qc, qs[i])
				ix.mu.RUnlock()
				if err != nil {
					errs[slot] = err
					failed.Store(true)
					return
				}
				out[i] = nb
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanNearest is the exact O(n) sequential scan (lowest id among ties),
// retained as the in-package correctness oracle the engine tests compare
// against.
func (ix *Index) scanNearest(q vec.Point) Neighbor {
	metric := vec.Euclidean{}
	best := Neighbor{ID: -1}
	for id, p := range ix.points {
		if p == nil {
			continue
		}
		d2 := metric.Dist2(q, p)
		if best.ID < 0 || d2 < best.Dist2 {
			best = Neighbor{ID: id, Dist2: d2}
		}
	}
	return best
}
