package nncell

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// nearestBoth answers q with NearestNeighbor (data-tree search) and with
// NearestNeighborCell (the cell engine) and fails unless both return the same
// neighbor, ties included; the oracle suites call it so that every exactness
// check covers both engines.
func nearestBoth(t testing.TB, ix *Index, q vec.Point) Neighbor {
	t.Helper()
	got, err := ix.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := ix.NearestNeighborCell(q)
	if err != nil {
		t.Fatal(err)
	}
	if cell != got {
		t.Fatalf("q=%v: cell engine %+v, tree engine %+v", q, cell, got)
	}
	return got
}

// oracleKNN is the scan oracle in the index's result order: the k nearest
// live points ascending by (Dist2, ID).
func oracleKNN(ix *Index, q vec.Point, k int) []Neighbor {
	var all []Neighbor
	for id, p := range ix.points {
		if p != nil {
			all = append(all, Neighbor{ID: id, Dist2: vec.Euclidean{}.Dist2(q, p)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		return a.Dist2 < b.Dist2 || (a.Dist2 == b.Dist2 && a.ID < b.ID)
	})
	return all[:min(k, len(all))]
}

// checkEngines asserts that every engine answers q exactly like the oracle,
// ties included: NearestNeighbor and KNearest(1) (data-tree search),
// NearestNeighborCell (cell engine), the bounded search at the exact NN
// distance and at a loose bound, and k-NN.
func checkEngines(t *testing.T, ix *Index, q vec.Point, label string) {
	t.Helper()
	const k = 6
	want := oracleKNN(ix, q, k)
	if got := nearestBoth(t, ix, q); got != want[0] {
		t.Fatalf("%s: NN %+v, oracle %+v", label, got, want[0])
	}
	if nbs, err := ix.KNearest(q, 1); err != nil || len(nbs) != 1 || nbs[0] != want[0] {
		t.Fatalf("%s: KNearest(1) %+v %v, oracle %+v", label, nbs, err, want[0])
	}
	for _, bound := range []float64{want[0].Dist2, want[0].Dist2 + 0.5} {
		got, ok := ix.NearestWithin(q, bound)
		if !ok || got != want[0] {
			t.Fatalf("%s: NearestWithin(%g) = %+v %v, oracle %+v", label, bound, got, ok, want[0])
		}
	}
	nbs, err := ix.KNearest(q, k)
	if err != nil || len(nbs) != len(want) {
		t.Fatalf("%s: KNearest(%d) = %d results %v, oracle %d", label, k, len(nbs), err, len(want))
	}
	for i := range want {
		if nbs[i] != want[i] {
			t.Fatalf("%s: KNearest[%d] = %+v, oracle %+v", label, i, nbs[i], want[i])
		}
	}
}

// Answers must not depend on the engine: on lattice points (queries at cell
// centres, face and edge midpoints are equidistant to 2-8 points), on a
// bit-distinct coincident pair (±0.0: equal distance to every query), and on
// a deleted and re-inserted point (same coordinates, new id), every engine
// returns the lowest id among the tied nearest points.
func TestEnginesAgreeOnTies(t *testing.T) {
	// 2-D lattice i/8 (exact binary fractions, so midpoint ties are exact).
	var lat2 []vec.Point
	for i := 0; i <= 8; i++ {
		for j := 0; j <= 8; j++ {
			lat2 = append(lat2, vec.Point{float64(i) / 8, float64(j) / 8})
		}
	}
	// 3-D lattice i/4.
	var lat3 []vec.Point
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			for l := 0; l <= 4; l++ {
				lat3 = append(lat3, vec.Point{float64(i) / 4, float64(j) / 4, float64(l) / 4})
			}
		}
	}
	for _, tc := range []struct {
		name string
		pts  []vec.Point
		alg  Algorithm
		step float64
	}{
		{"lattice-2d-correct", lat2, Correct, 1.0 / 16},
		{"lattice-3d-nndirection", lat3, NNDirection, 1.0 / 8},
	} {
		ix := mustBuild(t, tc.pts, Options{Algorithm: tc.alg})
		d := tc.pts[0].Dim()
		// Every multiple of step: lattice points, edge and face midpoints,
		// cell centres, and a ring outside the data space.
		steps := int(math.Round(1/tc.step)) + 2
		q := make(vec.Point, d)
		var walk func(j int)
		walk = func(j int) {
			if j == d {
				checkEngines(t, ix, q, tc.name)
				return
			}
			for s := -1; s <= steps-1; s++ {
				q[j] = float64(s) * tc.step
				walk(j + 1)
			}
		}
		walk(0)
	}

	// Coincident pair and a re-inserted duplicate among uniform points.
	pts := uniquePoints(t, dataset.NameUniform, 71, 150, 3)
	pts = append(pts, vec.Point{0.5, 0.5, 0}, vec.Point{0.5, 0.5, math.Copysign(0, -1)})
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	dup := pts[10]
	if err := ix.Delete(10); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(dup.Clone()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 300; i++ {
		q := randQuery(rng, 3)
		switch i % 3 {
		case 0:
			q = vec.Point{0.5 + 1e-3*rng.Float64(), 0.5, 1e-3 * rng.Float64()}
		case 1:
			copy(q, dup)
			q[1] += 1e-3 * rng.Float64()
		}
		checkEngines(t, ix, q, "coincident")
	}
}

// NearestWithin's bound is inclusive: the NN is found at exactly its own
// distance and not below it; an empty index has nothing within any bound;
// +Inf is NearestNeighbor. Finite bounds count as the bounded engine, +Inf
// as the tree engine.
func TestNearestWithinBound(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 73, 120, 4)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	rng := rand.New(rand.NewSource(74))
	before := ix.Stats()
	for i := 0; i < 50; i++ {
		q := randQuery(rng, 4)
		want := ix.scanNearest(q)
		if got, ok := ix.NearestWithin(q, want.Dist2); !ok || got != want {
			t.Fatalf("bound = NN dist: got %+v %v, want %+v", got, ok, want)
		}
		if got, ok := ix.NearestWithin(q, math.Nextafter(want.Dist2, 0)); ok {
			t.Fatalf("bound below NN dist: got %+v", got)
		}
		if got, ok := ix.NearestWithin(q, math.Inf(1)); !ok || got != want {
			t.Fatalf("infinite bound: got %+v %v, want %+v", got, ok, want)
		}
	}
	st := ix.Stats()
	if got := st.Engines[EngineBounded] - before.Engines[EngineBounded]; got != 100 {
		t.Errorf("bounded engine counted %d, want 100", got)
	}
	if got := st.Engines[EngineTree] - before.Engines[EngineTree]; got != 50 {
		t.Errorf("tree engine counted %d, want 50", got)
	}
	if got := st.Engines[EngineCell] - before.Engines[EngineCell]; got != 0 {
		t.Errorf("cell engine counted %d, want 0", got)
	}
	for id := range pts {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := ix.NearestWithin(randQuery(rng, 4), math.Inf(1)); ok {
		t.Fatalf("empty index: got %+v", got)
	}
}

// k-NN after many deletes returns exactly k results equal to the scan: the
// data tree holds only live points, so no tombstone slack is needed.
func TestKNearestAfterManyDeletes(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 75, 400, 4)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	for id := 0; id < len(pts); id++ {
		if id%4 != 0 {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(76))
	for i := 0; i < 100; i++ {
		q := randQuery(rng, 4)
		for _, k := range []int{2, 10, 33} {
			want := oracleKNN(ix, q, k)
			got, err := ix.KNearest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("k=%d: %d results", k, len(got))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("k=%d: result %d = %+v, oracle %+v", k, j, got[j], want[j])
				}
			}
			// The bounded form returns exactly the oracle prefix within the
			// k-th distance (inclusive).
			bound := want[k/2].Dist2
			part, err := ix.KNearestWithinAppend(nil, q, k, bound)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for n < len(want) && want[n].Dist2 <= bound {
				n++
			}
			if len(part) != n {
				t.Fatalf("k=%d bound=%g: %d results, want %d", k, bound, len(part), n)
			}
			for j := range part {
				if part[j] != want[j] {
					t.Fatalf("k=%d bound=%g: result %d = %+v, oracle %+v", k, bound, j, part[j], want[j])
				}
			}
		}
	}
}
