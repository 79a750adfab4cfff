package nncell

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// TestPointsWithinUsesIndex pins the Correct algorithm's pruning to the data
// index: a small-radius range retrieval must visit (and count) only the
// points inside the sphere, not scan the full point set, and must return
// exactly the brute-force within-radius set.
func TestPointsWithinUsesIndex(t *testing.T) {
	const n, d = 500, 4
	pts := uniquePoints(t, dataset.NameUniform, 21, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})

	cc := newCellCtx(d)
	metric := vec.Euclidean{}
	for _, i := range []int{0, 17, n - 1} {
		radius := 0.15
		before := ix.Stats().PruneVisited
		ids, all := ix.pointsWithin(cc, i, radius)
		visited := ix.Stats().PruneVisited - before

		if visited >= uint64(n)/2 {
			t.Fatalf("point %d: pruning visited %d of %d points; expected an index-pruned subset", i, visited, n)
		}
		if all {
			t.Fatalf("point %d: radius %v cannot cover all %d points", i, radius, n)
		}
		// Cross-check against the linear scan the retrieval replaced.
		want := map[int]bool{}
		for id, q := range pts {
			if id != i && metric.Dist2(pts[i], q) <= radius*radius {
				want[id] = true
			}
		}
		if len(ids) != len(want) {
			t.Fatalf("point %d: got %d ids, brute force found %d", i, len(ids), len(want))
		}
		for _, id := range ids {
			if !want[id] {
				t.Fatalf("point %d: id %d not within radius", i, id)
			}
		}
	}

	// The all-points signal must still fire when the radius covers the space.
	ids, all := ix.pointsWithin(cc, 0, math.Sqrt(float64(d))+1)
	if !all || len(ids) != n-1 {
		t.Fatalf("full-space radius: got %d ids, all=%v; want %d, true", len(ids), all, n-1)
	}
}

// TestCorrectBuildPruneVisited checks end-to-end that a Correct build's
// pruning retrieval stays well below one linear scan per pruning round.
func TestCorrectBuildPruneVisited(t *testing.T) {
	// Low dimension and a larger N keep the pruning spheres small relative
	// to the point set, so index-backed retrieval is clearly sub-linear.
	const n, d = 600, 3
	pts := uniquePoints(t, dataset.NameUniform, 22, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	visited := ix.Stats().PruneVisited
	if visited == 0 {
		t.Fatal("Correct build recorded no pruning retrievals")
	}
	// A linear scan per cell would visit ≥ n·(n−1) points (≥ 1 round each).
	linear := uint64(n) * uint64(n-1)
	if visited >= linear/2 {
		t.Fatalf("Correct build visited %d points while pruning; linear scans would be %d — pruning is not index-backed", visited, linear)
	}
}

// TestNearestNeighborAllocs pins the warm query hot paths of both engines
// (NearestNeighbor and NearestNeighborCell) to zero allocations: the pooled
// QueryCtx owns every scratch buffer.
func TestNearestNeighborAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, d = 400, 6
	pts := uniquePoints(t, dataset.NameUniform, 23, n, d)
	// CachePages 0: the pager records every access as a miss without
	// touching its LRU, so measured allocations are the index's own.
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	qs := dataset.Uniform(rand.New(rand.NewSource(24)), 64, d)
	for name, nn := range map[string]func(vec.Point) (Neighbor, error){
		"NearestNeighbor":     ix.NearestNeighbor,
		"NearestNeighborCell": ix.NearestNeighborCell,
	} {
		for _, q := range qs { // warm
			if _, err := nn(q); err != nil {
				t.Fatal(err)
			}
		}
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := nn(qs[k%len(qs)]); err != nil {
				t.Fatal(err)
			}
			k++
		})
		if allocs != 0 {
			t.Fatalf("%s allocates %v/op, want 0", name, allocs)
		}
	}
}

// TestCandidatesAllocs checks the map-free dedup and the reusable result
// buffer: a warm CandidatesAppend with a recycled slice allocates nothing.
func TestCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, d = 400, 6
	pts := uniquePoints(t, dataset.NameUniform, 25, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	qs := dataset.Uniform(rand.New(rand.NewSource(26)), 64, d)
	ids := make([]int, 0, n)
	for _, q := range qs {
		ids = ix.CandidatesAppend(ids[:0], q)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		ids = ix.CandidatesAppend(ids[:0], qs[k%len(qs)])
		k++
	})
	if allocs != 0 {
		t.Fatalf("CandidatesAppend allocates %v/op, want 0", allocs)
	}
}

// TestCandidatesDistinct guards the slice-based dedup against regressions: a
// decomposed index stores several fragments per cell, and a query point on
// fragment seams must still report each candidate id once.
func TestCandidatesDistinct(t *testing.T) {
	const n, d = 120, 3
	pts := uniquePoints(t, dataset.NameDiagonal, 27, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct, Decompose: 8})
	qs := dataset.Uniform(rand.New(rand.NewSource(28)), 200, d)
	for _, q := range qs {
		ids := ix.Candidates(q)
		seen := map[int]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate candidate id %d for query %v", id, q)
			}
			seen[id] = true
		}
	}
}

// TestApproximateCellAllocs pins the warm construction path of one cell
// (NN-Direction selection, no decomposition) to the allocations of its
// result: the returned fragment slice and the one coordinate array its
// rectangle's Lo and Hi share. Selection, bisectors, LP solves and stats
// all run on the cellCtx's reused scratch.
func TestApproximateCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, d = 500, 8
	pts := uniquePoints(t, dataset.NameUniform, 29, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection, Decompose: 1})
	cc := newCellCtx(d)
	for i := 0; i < 64; i++ { // warm every buffer
		if _, err := ix.approximateCell(cc, i); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ix.approximateCell(cc, k%64); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 2 {
		t.Fatalf("warm approximateCell allocates %v/op, want 2 (fragment slice + coordinates)", allocs)
	}
}
