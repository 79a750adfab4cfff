package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// leafKinds counts the leaves flagged as point leaves and the others.
func leafKinds(tr *Tree) (point, other int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 0 {
			if n.points {
				point++
			} else {
				other++
			}
			return
		}
		for i := range n.entries {
			walk(n.entries[i].child)
		}
	}
	walk(tr.root)
	return point, other
}

// checkKNearest compares KNearestCtx with the recursive KNearest (which
// measures every entry with Euclidean.MinDist2) bit for bit.
func checkKNearest(t *testing.T, label string, tr *Tree, rng *rand.Rand) {
	t.Helper()
	var qc QueryCtx
	var out []Neighbor
	for qi := 0; qi < 30; qi++ {
		q := randPoints(rng, 1, tr.Dim())[0]
		k := 1 + qi%7
		want := tr.KNearest(q, k)
		out = tr.KNearestCtx(&qc, q, k, math.Inf(1), out[:0])
		if len(out) != len(want) {
			t.Fatalf("%s: ctx returned %d, recursive %d", label, len(out), len(want))
		}
		for i := range want {
			if out[i].Entry.Data != want[i].Entry.Data || math.Float64bits(out[i].Dist2) != math.Float64bits(want[i].Dist2) {
				t.Fatalf("%s q=%d result %d: ctx %d@%g, recursive %d@%g",
					label, qi, i, out[i].Entry.Data, out[i].Dist2, want[i].Entry.Data, want[i].Dist2)
			}
		}
	}
}

// Every leaf's point flag matches its entries (CheckInvariants) through
// bulk load, inserts with splits and forced reinserts, a point leaf
// receiving a rectangle, rectangle leaves beside point leaves, and deletes
// with condensing; k-NN answers stay bitwise those of the all-MinDist²
// recursive search throughout.
func TestLeafPointFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	const d = 8
	step := func(label string, tr *Tree) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkKNearest(t, label, tr, rng)
	}

	pts := randPoints(rng, 1500, d)
	items := make([]Entry, 1000)
	for i := range items {
		items[i] = Entry{Rect: vec.PointRect(pts[i]), Data: int64(i)}
	}
	tr := BulkLoad(d, newTestPager(), Options{}, items)
	step("bulk load", tr)
	for i := 1000; i < 1500; i++ {
		tr.Insert(vec.PointRect(pts[i]), int64(i))
	}
	step("point inserts", tr)
	if p, o := leafKinds(tr); p < 2 || o != 0 {
		t.Fatalf("point tree: %d point leaves, %d others; want only point leaves, several", p, o)
	}

	// One rectangle lands in one point leaf and clears its flag.
	box := vec.PointRect(pts[0])
	box.Hi[0] += 1e-3
	tr.Insert(box, 5000)
	step("rectangle into a point leaf", tr)
	if _, o := leafKinds(tr); o != 1 {
		t.Fatalf("after one rectangle: %d non-point leaves, want 1", o)
	}
	if !tr.Delete(box, 5000) {
		t.Fatal("delete of the rectangle failed")
	}
	step("rectangle deleted", tr)
	if _, o := leafKinds(tr); o != 0 {
		t.Fatalf("after deleting the rectangle: %d non-point leaves, want 0", o)
	}

	// Overlapping rectangles make leaves of their own beside the point
	// leaves.
	for i := 0; i < 1500; i++ {
		lo := make(vec.Point, d)
		hi := make(vec.Point, d)
		for j := range lo {
			c := rng.Float64()
			lo[j] = c * 0.6
			hi[j] = 0.4 + c*0.6
		}
		tr.Insert(vec.NewRect(lo, hi), int64(10000+i))
	}
	step("rectangles", tr)
	if p, o := leafKinds(tr); p == 0 || o == 0 {
		t.Fatalf("mixed tree: %d point leaves, %d others; want both", p, o)
	}

	// Deleting most points condenses the tree and reinserts orphans.
	for i := 0; i < 1400; i++ {
		if !tr.Delete(vec.PointRect(pts[i]), int64(i)) {
			t.Fatalf("delete of point %d failed", i)
		}
		if i%350 == 0 {
			step("deletes", tr)
		}
	}
	step("after deletes", tr)
}
