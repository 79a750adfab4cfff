package nncell

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// Both engines must return exactly what the O(n) scan oracle returns (the
// lowest id among distance ties), on smooth and clustered data alike, for
// every constraint-selection algorithm, including queries outside the data
// space (the engines resolve those through their fallbacks).
func TestEngineMatchesLegacy(t *testing.T) {
	for _, name := range []dataset.Name{dataset.NameUniform, dataset.NameFourier} {
		for _, alg := range Algorithms() {
			for _, d := range []int{2, 8} {
				pts := uniquePoints(t, name, int64(200+10*d+int(alg)), 150, d)
				ix := mustBuild(t, pts, Options{Algorithm: alg})
				rng := rand.New(rand.NewSource(int64(300 + d)))
				for qi := 0; qi < 120; qi++ {
					q := randQuery(rng, d)
					if qi%8 == 7 {
						// Push a coordinate outside the unit cube to cover the
						// fallback path.
						q[qi%d] += 1.5
					}
					want := ix.scanNearest(q)
					got := nearestBoth(t, ix, q)
					if want != got {
						t.Fatalf("%s/%s/d=%d q=%v: engine %+v, scan oracle %+v", name, alg, d, q, got, want)
					}
				}
			}
		}
	}
}

// Random exterior queries must resolve exactly: the clamp-and-verify fallback
// against the O(n) scan oracle. Exterior points are generated on all sides
// and corners of the data space, at varying distances.
func TestFallbackMatchesScanOracle(t *testing.T) {
	for _, alg := range []Algorithm{Correct, NNDirection} {
		for _, d := range []int{2, 6} {
			pts := uniquePoints(t, dataset.NameUniform, int64(400+10*d+int(alg)), 200, d)
			ix := mustBuild(t, pts, Options{Algorithm: alg})
			rng := rand.New(rand.NewSource(int64(500 + d)))
			for qi := 0; qi < 200; qi++ {
				q := randQuery(rng, d)
				out := false
				for j := range q {
					switch rng.Intn(3) {
					case 0:
						q[j] = -rng.Float64() * 2
						out = true
					case 1:
						q[j] = 1 + rng.Float64()*2
						out = true
					}
				}
				if !out {
					q[rng.Intn(d)] = 1.0001
				}
				want := ix.scanNearest(q)
				got := nearestBoth(t, ix, q)
				if got != want {
					t.Fatalf("%s/d=%d q=%v: fallback %+v, scan oracle %+v", alg, d, q, got, want)
				}
			}
		}
	}
}

// Candidates is a query like any other: it must count one query and the
// inspected candidates in the index stats.
func TestCandidatesCountsStats(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 61, 80, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	before := ix.Stats()
	rng := rand.New(rand.NewSource(62))
	total := 0
	for i := 0; i < 25; i++ {
		total += len(ix.Candidates(randQuery(rng, 4)))
	}
	after := ix.Stats()
	if after.Queries-before.Queries != 25 {
		t.Errorf("queries counted %d, want 25", after.Queries-before.Queries)
	}
	if got := after.Candidates - before.Candidates; got < uint64(total) {
		t.Errorf("candidates counted %d, want >= %d distinct results", got, total)
	}
}

// KNearest with k <= 0 fails with ErrBadK without touching the index or its
// stats; valid k counts exactly one query.
func TestKNearestStatsDiscipline(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 63, 80, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	before := ix.Stats()
	for _, k := range []int{0, -3} {
		nbs, err := ix.KNearest(randQuery(rand.New(rand.NewSource(64)), 4), k)
		if !errors.Is(err, ErrBadK) || nbs != nil {
			t.Fatalf("k=%d: got %v, %v; want nil, ErrBadK", k, nbs, err)
		}
	}
	if after := ix.Stats(); after != before {
		t.Errorf("k<=0 touched stats: %+v -> %+v", before, after)
	}
	if _, err := ix.KNearest(randQuery(rand.New(rand.NewSource(65)), 4), 3); err != nil {
		t.Fatal(err)
	}
	if after := ix.Stats(); after.Queries != before.Queries+1 {
		t.Errorf("k=3 counted %d queries, want %d", after.Queries, before.Queries+1)
	}
}

// The engine must stay exact across structural updates: deletes tombstone
// points and remove their fragments, inserts recompute affected cells, and
// the SoA coordinate mirror must track both.
func TestEngineExactAfterUpdates(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 67, 120, 4)
	ix := mustBuild(t, pts[:100], Options{Algorithm: NNDirection})
	for id := 0; id < 100; id += 7 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[100:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(68))
	for qi := 0; qi < 100; qi++ {
		q := randQuery(rng, 4)
		want := ix.scanNearest(q)
		got := nearestBoth(t, ix, q)
		if got != want {
			t.Fatalf("q=%v: engine %+v, scan oracle %+v", q, got, want)
		}
	}
}
