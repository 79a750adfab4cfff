package shard

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// saveV1 hand-assembles the v1 stream of a hash-routed index: magic, shard
// count, per-shard presence/blobs, with no geometry or routing header.
func saveV1(t testing.TB, s *Sharded) []byte {
	t.Helper()
	var v1 bytes.Buffer
	v1.WriteString(MagicV1)
	writeU32 := func(v uint32) {
		v1.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	writeU32(uint32(s.NumShards()))
	for i := 0; i < s.NumShards(); i++ {
		ix := s.Shard(i)
		if ix.Len() == 0 {
			v1.WriteByte(0)
			continue
		}
		var blob bytes.Buffer
		if err := ix.Save(&blob); err != nil {
			t.Fatal(err)
		}
		v1.WriteByte(1)
		n := uint64(blob.Len())
		for b := 0; b < 8; b++ {
			v1.WriteByte(byte(n >> (8 * b)))
		}
		v1.Write(blob.Bytes())
	}
	return v1.Bytes()
}

// A bare single-index stream loads as one hash-routed shard whose ids are
// the single index's ids, answering NN and k-NN bit-identically to the index
// it came from — and handing out the same next id.
func TestShardedLoadBareSingleIndex(t *testing.T) {
	const d = 4
	pts := uniquePoints(t, 620, 130, d)
	single, err := nncell.Build(pts[:120], vec.UnitCube(d), pager.New(pager.Config{CachePages: 64}),
		testOptions(1).Index)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Delete(7); err != nil { // a tombstone keeps ids sparse
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := single.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(bytes.NewReader(buf.Bytes()), Options{Pager: pager.Config{CachePages: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 || s.RouteKind() != RouteHash || s.Len() != single.Len() || s.Dim() != d {
		t.Fatalf("loaded shards=%d route=%v len=%d dim=%d", s.NumShards(), s.RouteKind(), s.Len(), s.Dim())
	}
	if !s.Bounds().Equal(single.Bounds()) {
		t.Fatalf("bounds %v, want %v", s.Bounds(), single.Bounds())
	}
	wantIDs, gotIDs := single.IDs(), s.IDs()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("%d ids, want %d", len(gotIDs), len(wantIDs))
	}
	for i, id := range wantIDs {
		if gotIDs[i] != id {
			t.Fatalf("id[%d] = %d, want %d", i, gotIDs[i], id)
		}
	}
	same := func(a, b nncell.Neighbor) bool {
		return a.ID == b.ID && math.Float64bits(a.Dist2) == math.Float64bits(b.Dist2)
	}
	rng := rand.New(rand.NewSource(621))
	for trial := 0; trial < 60; trial++ {
		q := randQuery(rng, d)
		if trial%6 == 5 {
			q[trial%d] += 1.25 // exterior query
		}
		want, err := single.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got, want) {
			t.Fatalf("trial %d: NN %+v, single index %+v", trial, got, want)
		}
		wantK, err := single.KNearest(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := s.KNearest(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != len(wantK) {
			t.Fatalf("trial %d: %d k-NN results, want %d", trial, len(gotK), len(wantK))
		}
		for i := range wantK {
			if !same(gotK[i], wantK[i]) {
				t.Fatalf("trial %d rank %d: %+v, single index %+v", trial, i, gotK[i], wantK[i])
			}
		}
	}
	wantID, err := single.Insert(pts[125])
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := s.Insert(pts[125])
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Fatalf("insert after load got id %d, single index %d", gotID, wantID)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzShardLoad drives the one snapshot decoder serving uses with arbitrary
// bytes: Load must return an error or an index that passes CheckInvariants,
// never panic. The seed corpus covers every accepted stream kind: v1, v2
// hash and grid, an all-empty v2 stream, and a bare single-index stream.
func FuzzShardLoad(f *testing.F) {
	const d = 2
	pts := uniquePoints(f, 630, 8, d)
	save := func(s *Sharded) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	build := func(opts Options) *Sharded {
		s, err := Build(pts, vec.UnitCube(d), opts)
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	hash1 := build(testOptions(1))
	f.Add(save(hash1))
	f.Add(saveV1(f, build(testOptions(3))))
	grid := testOptions(4)
	grid.Route = RouteGrid
	f.Add(save(build(grid)))
	empty, err := NewEmpty(d, vec.UnitCube(d), testOptions(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(save(empty))
	var bare bytes.Buffer
	if err := hash1.Shard(0).Save(&bare); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data), Options{})
		if err != nil {
			return
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("accepted stream fails invariants: %v", err)
		}
	})
}

// A loaded index recreates its absent (empty) shards with the construction
// options of its present shards, not the loader's: inserts into the empty
// grid tile of a reloaded Sphere index cost exactly the LP solves they cost
// on the original.
func TestLoadEmptyShardKeepsOptions(t *testing.T) {
	const d = 2
	rng := rand.New(rand.NewSource(41))
	var pts, fresh []vec.Point
	for len(pts) < 200 || len(fresh) < 30 {
		p := vec.Point{rng.Float64(), rng.Float64()}
		if p[0] >= 0.5 || p[1] >= 0.5 {
			pts = append(pts, p)
		} else {
			fresh = append(fresh, p) // the lower-left tile stays empty
		}
	}
	pts, fresh = pts[:200], fresh[:30]
	opts := testOptions(4)
	opts.Route = RouteGrid
	orig, err := Build(pts, vec.UnitCube(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	empty := -1
	for i := 0; i < orig.NumShards(); i++ {
		if orig.Shard(i).Len() == 0 {
			empty = i
		}
	}
	if empty < 0 {
		t.Fatal("no empty shard in the build")
	}
	if got := loaded.Shard(empty).Options().Algorithm; got != nncell.Sphere {
		t.Errorf("reloaded empty shard runs %v, want Sphere", got)
	}
	solves := func(s *Sharded) uint64 {
		before := s.Shard(empty).Stats().LPSolves
		for _, p := range fresh {
			if _, err := s.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return s.Shard(empty).Stats().LPSolves - before
	}
	if a, b := solves(orig), solves(loaded); a != b {
		t.Errorf("inserts into the empty tile: %d LP solves on the original, %d after reload", a, b)
	}
}
