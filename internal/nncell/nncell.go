// Package nncell implements the paper's contribution: nearest-neighbor
// search by precomputing and indexing the solution space.
//
// For every data point P the first-order Voronoi cell ("NN-cell", Definition
// 2) — the set of all query points whose nearest neighbor is P — is
// approximated by its minimum bounding hyper-rectangle (Definition 3). Each
// MBR boundary is the optimum of a linear program whose constraints are the
// bisector half-spaces between P and (a subset of) the other data points.
// The approximations, optionally decomposed into up to k fragments along the
// cell's most oblique dimensions (Definition 5), are stored in an X-tree.
// A nearest-neighbor query is then a point query on that index followed by a
// distance comparison among the returned candidates; Lemmas 1 and 2 of the
// paper guarantee no false dismissals, which makes the result exact.
//
// The package supports the paper's four constraint-selection algorithms
// (Correct, Point, Sphere, NN-Direction), parallel bulk construction, and
// the dynamic case: insertion with affected-cell maintenance and deletion
// with neighbor recomputation.
package nncell

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pager"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// Algorithm selects which data points contribute bisector constraints to the
// cell-approximation LPs (the paper's four variants, §2).
type Algorithm int

// The four constraint-selection algorithms of the paper.
const (
	// Correct uses every other data point, with a sound iterative pruning
	// (points farther than twice the current cell radius cannot touch the
	// cell), yielding the exact MBR approximation.
	Correct Algorithm = iota
	// PointAlg uses all points stored on data pages whose page region
	// contains the point being inserted.
	PointAlg
	// Sphere uses all points on data pages whose region intersects a sphere
	// around the point (radius: the paper's heuristic, see SphereRadius).
	Sphere
	// NNDirection uses a constant-size set: the nearest point in each of the
	// 2d axis directions plus the point with smallest angular deviation from
	// each of the 2d axes.
	NNDirection
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Correct:
		return "Correct"
	case PointAlg:
		return "Point"
	case Sphere:
		return "Sphere"
	case NNDirection:
		return "NN-Direction"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists all constraint-selection variants in the paper's order.
func Algorithms() []Algorithm { return []Algorithm{Correct, PointAlg, Sphere, NNDirection} }

// ObliquenessHeuristic selects how decomposition ranks dimensions.
type ObliquenessHeuristic int

const (
	// VolumeGreedy ranks dimensions by the measured volume reduction of a
	// trial 2-way decomposition (solves extra LPs; highest quality).
	VolumeGreedy ObliquenessHeuristic = iota
	// ExtentBased ranks dimensions by cell extent (no extra LPs; cheap).
	ExtentBased
)

// Options configure index construction.
type Options struct {
	// Algorithm is the constraint-selection variant. Default Correct.
	Algorithm Algorithm
	// Decompose is the fragment budget k per cell (Definition 5). Values
	// 0 and 1 mean no decomposition. The paper recommends k ≤ 10.
	Decompose int
	// Obliqueness picks the decomposition ranking heuristic.
	Obliqueness ObliquenessHeuristic
	// SphereRadiusScale multiplies the Sphere algorithm's heuristic radius.
	// Default 1.
	SphereRadiusScale float64
	// MaxConstraintPoints caps the constraint-set size of the Point and
	// Sphere selections (0 = unlimited). On heavily clustered data those
	// selections can degenerate to nearly all points — the pathology §2 of
	// the paper reports for real data; capping keeps the closest points,
	// which is sound by Lemma 1 (any subset only enlarges the MBR).
	MaxConstraintPoints int
	// Workers bounds build parallelism. Default: GOMAXPROCS.
	Workers int
	// XTree passes structural options to the backing X-tree.
	XTree xtree.Options
	// Epsilon pads every stored MBR to absorb LP tolerance; queries remain
	// exact regardless (a scan fallback catches the pathological case), the
	// padding merely keeps the fallback rare. Default 1e-9.
	Epsilon float64
	// AutoThreshold makes NN-Direction the effective constraint selection
	// once the live point count reaches this value, when Algorithm is
	// Correct. The Correct selection solves LPs against O(n) constraint
	// points per cell — fine for the paper's figure scales, quadratic in
	// total at bulk scale — while NN-Direction keeps every constraint set
	// O(d) (and any subset is sound by Lemma 1, so queries stay exact; the
	// approximations are merely looser). 0 means the default threshold of
	// 4096; negative disables the switch (the paper-figure harness pins it
	// off so each figure measures exactly the algorithm it names).
	AutoThreshold int
	// LazyRepair defers the affected-cell recomputation of Insert and
	// InsertBatch: affected cells are marked stale and re-approximated by a
	// background pool instead of being re-solved inside the mutation's write
	// lock. Stale cells keep serving their previous MBRs, which Lemma 1
	// keeps correct — an insert only shrinks existing cells, so the old
	// approximations remain supersets and queries stay exact (at worst a few
	// extra candidates). Deletes always repair eagerly: a delete grows its
	// neighbors' cells, so their old MBRs would stop being supersets.
	LazyRepair bool
	// RepairWorkers bounds the background repair pool used with LazyRepair.
	// 0 means the default (min(4, GOMAXPROCS)); negative means no background
	// goroutines at all — stale cells are repaired only when RepairWait
	// drains the queue on the caller (deterministic mode for tests).
	RepairWorkers int
	// MaxStaleCells bounds the stale backlog LazyRepair may accumulate
	// (0 = unbounded). A mutation that would push the stale set past the
	// cap degrades to the eager path for that mutation: the acknowledgment
	// is delayed by the synchronous recomputes instead of letting the
	// backlog — and with it the query-time extra-candidate cost — grow
	// without bound under sustained write load. Backpressure, not an
	// error: the mutation still succeeds either way.
	MaxStaleCells int
}

// DefaultAutoThreshold is the live point count at which Options.AutoThreshold
// (left zero) switches the Correct constraint selection to NN-Direction.
const DefaultAutoThreshold = 4096

func (o *Options) normalize() {
	if o.Decompose < 1 {
		o.Decompose = 1
	}
	if o.SphereRadiusScale <= 0 {
		o.SphereRadiusScale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-9
	}
	if o.AutoThreshold == 0 {
		o.AutoThreshold = DefaultAutoThreshold
	}
	if o.RepairWorkers == 0 {
		o.RepairWorkers = 4
		if g := runtime.GOMAXPROCS(0); g < o.RepairWorkers {
			o.RepairWorkers = g
		}
	}
}

// Stats aggregates counters for experiments.
type Stats struct {
	// LPSolves and LPPivots count linear programs run and simplex pivots.
	LPSolves, LPPivots uint64
	// ConstraintPoints sums the constraint-set sizes over all LP batches
	// (one batch = one cell side set), for the quality/performance analysis
	// of Fig. 4/5.
	ConstraintPoints uint64
	// Fragments is the number of rectangles in the index.
	Fragments uint64
	// Queries, Candidates and Fallbacks describe query-time behaviour.
	// Candidates is the refinement work of NN queries: the points the cell
	// engine's point query returned, plus the leaf entries whose distance a
	// data-tree NN search (tree engine, bounded search, fallback
	// verification) evaluated; k > 1 searches add none. Fallbacks counts
	// clamp-and-verify fallbacks of the cell engine (0 for in-space queries
	// in normal operation).
	Queries, Candidates, Fallbacks uint64
	// Engines counts NN queries (k = 1) per answering engine, indexed by
	// Engine: NearestNeighborCell (cell), unbounded data-tree searches
	// (tree) and bounded ones (bounded).
	Engines [NumEngines]uint64
	// Updates counts affected-cell recomputations due to Insert/Delete.
	Updates uint64
	// PruneVisited counts the data points retrieved by the Correct
	// algorithm's pruning range queries — with index-backed retrieval this
	// stays far below points×rounds, the cost of a linear scan per round.
	PruneVisited uint64
	// StaleCells is the number of cells currently marked stale by the lazy
	// repair path (serving their previous, still-superset MBRs).
	// StaleCellsHighWater is the largest value StaleCells has reached this
	// process lifetime — the gauge that shows how close the backlog came
	// to Options.MaxStaleCells.
	StaleCells, StaleCellsHighWater uint64
	// Repairs counts stale cells re-approximated and committed by the
	// repair pool; RepairFailures counts repairs abandoned because the
	// cell's LPs failed (the cell keeps its old superset MBR).
	Repairs, RepairFailures uint64
}

// Index is a dynamic NN-cell index over a point database.
type Index struct {
	dim    int
	opts   Options
	pg     *pager.Pager
	bounds vec.Rect

	// ctxPool recycles QueryCtx scratch across queries (see acquireCtx); the
	// zero value is ready, so Build and the persistence loader need no setup.
	ctxPool sync.Pool

	mu      sync.RWMutex
	wlog    *wal.Log    // nil: no durability; see AttachWAL
	points  []vec.Point // nil entries are tombstones
	ptsFlat []float64   // SoA mirror: point id's coords at [id*dim:(id+1)*dim]; NaN-poisoned for tombstones
	alive   int
	cells   [][]vec.Rect // fragment MBRs per point id (nil for tombstones)
	tree    *xtree.Tree  // fragment MBRs, Data = point id
	dataIdx *xtree.Tree  // the data points themselves (constraint selection)

	// Lazy-repair state (see repair.go). stale maps each stale cell id to
	// the monotonically increasing epoch of its most recent marking; a
	// repair computed at epoch e commits only if the cell is still stale at
	// exactly e (any interleaved mutation re-marks or clears and bumps).
	// Both are guarded by mu; rq has its own internal lock (acquired only
	// while mu is held or by goroutines holding neither).
	stale    map[int]uint64
	staleSeq uint64
	rq       repairQueue

	stats struct {
		lpSolves, lpPivots, constraintPoints atomic.Uint64
		fragments                            atomic.Uint64
		queries, candidates, fallbacks       atomic.Uint64
		engines                              [NumEngines]atomic.Uint64
		updates                              atomic.Uint64
		pruneVisited                         atomic.Uint64
		staleCells                           atomic.Int64
		staleHighWater                       atomic.Uint64
		repairs, repairFailures              atomic.Uint64
	}

	// testHookApprox, when non-nil, intercepts approximateCell before any LP
	// runs. Set only by failure-injection tests to exercise the dynamic
	// path's staged-commit rollback; nil in all production configurations.
	testHookApprox func(id int) error

	// mutHook, when non-nil, is called at the commit point of every mutation
	// that changes stored cells (Insert, Delete, the batch variants, and
	// lazy-repair commits) with the ids of the touched cells and, for
	// inserts, the coordinates of the points added. It runs while ix.mu is
	// held (write side), so it completes before the mutation is
	// acknowledged — the property the exact result cache's invalidation
	// depends on (see internal/rescache). The hook must not call back into
	// the index.
	mutHook func(cells []int, added []vec.Point)
}

// SetMutationHook installs (or, with nil, removes) the commit-time mutation
// hook. The hook receives the ids of every cell a mutation created, deleted,
// or whose stored approximation it changed, plus the coordinates of any
// points the mutation inserted (the geometric signal a result cache needs:
// an insert can only change a memoized answer if the new point beats the
// stored distance, a condition the cell-id set alone cannot decide across
// shards). It runs synchronously before the mutation returns.
func (ix *Index) SetMutationHook(h func(cells []int, added []vec.Point)) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.mutHook = h
}

// notifyMutationLocked invokes the mutation hook with the affected cells,
// the ids of the points the mutation itself added or removed, and the
// coordinates of inserted points. Callers hold ix.mu (write side).
func (ix *Index) notifyMutationLocked(affected []int, added []vec.Point, own ...int) {
	if ix.mutHook == nil {
		return
	}
	cells := make([]int, 0, len(affected)+len(own))
	cells = append(cells, affected...)
	cells = append(cells, own...)
	if len(cells) > 0 || len(added) > 0 {
		ix.mutHook(cells, added)
	}
}

// ErrEmpty is returned when building over an empty point set.
var ErrEmpty = errors.New("nncell: empty point set")

// ErrBadK is returned by KNearest for non-positive k. Callers can detect it
// with errors.Is; the returned error carries the offending value.
var ErrBadK = errors.New("nncell: k must be positive")

// Build constructs the index over points (bulk load): it first indexes the
// raw points in an X-tree (used by the Point/Sphere/NN-Direction constraint
// selection), then computes every cell's approximation in parallel against
// the full point set, and finally loads the fragment MBRs into the cell
// X-tree. The bounds rectangle is the data space; all points must lie in it.
// Exact duplicate points are rejected (a duplicated point has an empty
// NN-cell, which the paper's construction excludes).
//
// The build streams: each worker keeps only its own LP scratch (one cellCtx)
// and appends finished cells to a private accumulator, so peak memory is the
// output itself (fragment MBRs + tree) plus O(workers) scratch — never all
// 2·d·n constraint sets at once. With AutoThreshold in effect (the default)
// constraint sets above the threshold are O(d) per cell, which is what makes
// n = 10⁵ bulk builds both fit in memory and finish; a failed cell stops the
// other workers immediately instead of solving the remaining LPs for a build
// that will be thrown away.
func Build(points []vec.Point, bounds vec.Rect, pg *pager.Pager, opts Options) (*Index, error) {
	if len(points) == 0 {
		return nil, ErrEmpty
	}
	opts.normalize()
	d := points[0].Dim()
	if bounds.Dim() != d {
		return nil, fmt.Errorf("nncell: bounds dim %d, points dim %d", bounds.Dim(), d)
	}
	for i, p := range points {
		if p.Dim() != d {
			return nil, fmt.Errorf("nncell: point %d has dim %d, want %d", i, p.Dim(), d)
		}
		if !bounds.Contains(p) {
			return nil, fmt.Errorf("nncell: point %d = %v outside data space %v", i, p, bounds)
		}
	}
	if i, j, dup := dupIndex(points, d); dup {
		return nil, fmt.Errorf("nncell: duplicate point %v (indexes %d and %d); deduplicate first", points[j], i, j)
	}

	ix := &Index{
		dim:    d,
		opts:   opts,
		pg:     pg,
		bounds: bounds.Clone(),
		points: make([]vec.Point, len(points)),
		cells:  make([][]vec.Rect, len(points)),
		alive:  len(points),
	}
	ix.ptsFlat = make([]float64, 0, len(points)*d)
	for i, p := range points {
		ix.points[i] = p.Clone()
		ix.ptsFlat = append(ix.ptsFlat, p...)
	}

	// Phase 1: data index for constraint selection (STR bulk load).
	dataItems := make([]xtree.Entry, len(ix.points))
	for i, p := range ix.points {
		dataItems[i] = xtree.Entry{Rect: vec.PointRect(p), Data: int64(i)}
	}
	ix.dataIdx = xtree.BulkLoad(d, pg, opts.XTree, dataItems)

	// Phase 2: approximate all cells in parallel, streaming finished cells
	// into per-worker accumulators with a shared fail-fast flag.
	type cellOut struct {
		id    int
		rects []vec.Rect
	}
	accs := make([][]cellOut, opts.Workers)
	fragCounts := make([]int, opts.Workers)
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			cc := newCellCtx(d) // per-worker solver + scratch, reused across cells
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				rects, err := ix.approximateCell(cc, i)
				if err != nil {
					failed.Store(true)
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("nncell: cell %d: %w", i, err)
					}
					errMu.Unlock()
					return
				}
				accs[slot] = append(accs[slot], cellOut{i, rects})
				fragCounts[slot] += len(rects)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Phase 3: merge the accumulators and bulk-load the fragment MBRs into
	// the cell X-tree. The entry slice is sized exactly once.
	total := 0
	for _, n := range fragCounts {
		total += n
	}
	items := make([]xtree.Entry, 0, total)
	for _, acc := range accs {
		for _, out := range acc {
			ix.cells[out.id] = out.rects
			for _, rect := range out.rects {
				items = append(items, xtree.Entry{Rect: rect, Data: int64(out.id)})
			}
		}
	}
	ix.stats.fragments.Store(uint64(total))
	ix.tree = xtree.BulkLoad(d, pg, opts.XTree, items)
	return ix, nil
}

// dupIndex reports whether any two points share exactly the same float64 bit
// patterns, returning their indexes. It sorts an index permutation and
// compares adjacent rows — O(n log n) comparisons, O(n) extra memory — where
// the previous string-keyed map cost ~80 bytes of transient key per point,
// the dominant allocation of a 10⁵-point bulk build's validation pass.
func dupIndex(points []vec.Point, d int) (int, int, bool) {
	order := make([]int32, len(points))
	for i := range order {
		order[i] = int32(i)
	}
	less := func(a, b vec.Point) int {
		for j := 0; j < d; j++ {
			x, y := math.Float64bits(a[j]), math.Float64bits(b[j])
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sort.Slice(order, func(i, j int) bool {
		return less(points[order[i]], points[order[j]]) < 0
	})
	for k := 1; k < len(order); k++ {
		if less(points[order[k-1]], points[order[k]]) == 0 {
			i, j := int(order[k-1]), int(order[k])
			if i > j {
				i, j = j, i
			}
			return i, j, true
		}
	}
	return 0, 0, false
}

// NewEmpty constructs an index over zero points. Build rejects empty point
// sets (the paper's construction needs at least one cell), but the dynamic
// path handles an empty index fine — the first Insert's cell owns the whole
// data space — and the sharded layer needs exactly that: a shard whose hash
// partition starts empty must still accept routed inserts later.
func NewEmpty(d int, bounds vec.Rect, pg *pager.Pager, opts Options) (*Index, error) {
	if d <= 0 {
		return nil, fmt.Errorf("nncell: invalid dimensionality %d", d)
	}
	if bounds.Dim() != d {
		return nil, fmt.Errorf("nncell: bounds dim %d, want %d", bounds.Dim(), d)
	}
	opts.normalize()
	return &Index{
		dim:     d,
		opts:    opts,
		pg:      pg,
		bounds:  bounds.Clone(),
		tree:    xtree.New(d, pg, opts.XTree),
		dataIdx: xtree.New(d, pg, opts.XTree),
	}, nil
}

// Dim returns the dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of live points.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.alive
}

// Bounds returns the data space.
func (ix *Index) Bounds() vec.Rect { return ix.bounds.Clone() }

// Point returns the point with the given id, or ok=false if it was deleted
// or never existed.
func (ix *Index) Point(id int) (vec.Point, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.points) || ix.points[id] == nil {
		return nil, false
	}
	return ix.points[id].Clone(), true
}

// CellApprox returns the stored fragment MBRs of the cell of point id.
func (ix *Index) CellApprox(id int) ([]vec.Rect, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.cells) || ix.cells[id] == nil {
		return nil, false
	}
	out := make([]vec.Rect, len(ix.cells[id]))
	for i, r := range ix.cells[id] {
		out[i] = r.Clone()
	}
	return out, true
}

// Fragments returns the number of rectangles stored in the index.
func (ix *Index) Fragments() int { return int(ix.stats.fragments.Load()) }

// Options returns the options the index runs with (normalized; a loaded
// index has the persisted construction options and defaults for the rest).
func (ix *Index) Options() Options { return ix.opts }

// Tree exposes the backing X-tree for inspection (read-only use).
func (ix *Index) Tree() *xtree.Tree { return ix.tree }

// Pager exposes the simulated page store beneath both X-trees, so callers
// (the serving layer's /metrics endpoint, experiment harnesses) can report
// page-access counters and hit ratios alongside the index stats.
func (ix *Index) Pager() *pager.Pager { return ix.pg }

// PagerStats returns the page-access counters of the backing pager. The
// serving layer reads pager metrics through this method (rather than Pager)
// so a sharded index can report the aggregate over its per-shard pagers
// behind the same interface.
func (ix *Index) PagerStats() pager.Stats { return ix.pg.Stats() }

// PagerLivePages returns the allocated, unfreed page count of the backing
// pager (the index's size on simulated disk).
func (ix *Index) PagerLivePages() int { return ix.pg.LivePages() }

// Stats returns a snapshot of the counters.
func (ix *Index) Stats() Stats {
	stale := ix.stats.staleCells.Load()
	if stale < 0 {
		stale = 0
	}
	return Stats{
		LPSolves:            ix.stats.lpSolves.Load(),
		LPPivots:            ix.stats.lpPivots.Load(),
		ConstraintPoints:    ix.stats.constraintPoints.Load(),
		Fragments:           ix.stats.fragments.Load(),
		Queries:             ix.stats.queries.Load(),
		Candidates:          ix.stats.candidates.Load(),
		Fallbacks:           ix.stats.fallbacks.Load(),
		Engines:             ix.engineCounts(),
		Updates:             ix.stats.updates.Load(),
		PruneVisited:        ix.stats.pruneVisited.Load(),
		StaleCells:          uint64(stale),
		StaleCellsHighWater: ix.stats.staleHighWater.Load(),
		Repairs:             ix.stats.repairs.Load(),
		RepairFailures:      ix.stats.repairFailures.Load(),
	}
}

func (ix *Index) engineCounts() (out [NumEngines]uint64) {
	for e := range out {
		out[e] = ix.stats.engines[e].Load()
	}
	return out
}

// ApproxVolumeSum returns Σ vol(fragments)/vol(DS): the expected number of
// candidate cells for a uniformly distributed query — the paper's "overlap"
// quality measure in analytic form. The ideal value is 1.
func (ix *Index) ApproxVolumeSum() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	total := 0.0
	for _, frags := range ix.cells {
		for _, r := range frags {
			total += r.IntersectionVolume(ix.bounds)
		}
	}
	v := ix.bounds.Volume()
	if v == 0 {
		return 0
	}
	return total / v
}

// SphereRadius returns the Sphere algorithm's heuristic radius for a
// database of n points in dimension d: a multiple of the expected
// nearest-neighbor scale n^(-1/d) of the unit data space (the paper reports
// the heuristic "radius = 2·(1/n)^(1/d)" as working well on uniform data).
func SphereRadius(n, d int, scale float64) float64 {
	if n < 1 {
		n = 1
	}
	return 2 * scale * math.Pow(1/float64(n), 1/float64(d))
}

// IDs returns the ids of all live points in increasing order.
func (ix *Index) IDs() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.sortedIDs()
}

// sortedIDs returns the live point ids; callers must hold ix.mu.
func (ix *Index) sortedIDs() []int {
	ids := make([]int, 0, ix.alive)
	for i, p := range ix.points {
		if p != nil {
			ids = append(ids, i)
		}
	}
	sort.Ints(ids)
	return ids
}
