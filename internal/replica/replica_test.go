package replica

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
)

const testDim = 3

// testOptions configures every test index: one shard unless a test says
// otherwise.
var testOptions = shard.Options{
	Shards: 1,
	Pager:  pager.Config{CachePages: 64},
	Index:  nncell.Options{Algorithm: nncell.Sphere},
}

// primaryFixture is an in-process primary: an index on a Mem filesystem
// with attached WALs and a Source served over httptest.
type primaryFixture struct {
	ix  *shard.Sharded
	mem *iofault.Mem
	src *Source
	ts  *httptest.Server
}

func newPrimaryFixture(t *testing.T, n int) *primaryFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := dataset.Deduplicate(dataset.Uniform(rng, n, testDim))
	ix, err := shard.Build(pts, vec.UnitCube(testDim), testOptions)
	if err != nil {
		t.Fatal(err)
	}
	return servePrimary(t, ix)
}

// servePrimary attaches WALs to ix on a fresh Mem filesystem and serves its
// replication feed.
func servePrimary(t *testing.T, ix *shard.Sharded) *primaryFixture {
	t.Helper()
	mem := iofault.NewMem()
	if err := ix.OpenWALs("wal", wal.Options{FS: mem}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	src, err := NewSource(ix, mem)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(src)
	t.Cleanup(ts.Close)
	return &primaryFixture{ix: ix, mem: mem, src: src, ts: ts}
}

// followerFixture runs a Follower against a primary URL, holding the
// installed replica index.
type followerFixture struct {
	f   *Follower
	rep atomic.Pointer[shard.Sharded]
}

func (ff *followerFixture) index() *shard.Sharded { return ff.rep.Load() }

func startFollower(t *testing.T, primary string) *followerFixture {
	t.Helper()
	ff := &followerFixture{}
	f, err := NewFollower(Config{
		Primary: primary,
		Load: func(r io.Reader) (*shard.Sharded, error) {
			return shard.Load(r, shard.Options{Pager: pager.Config{CachePages: 64}})
		},
		OnReplica: func(ix *shard.Sharded) { ff.rep.Store(ix) },
		PollWait:  30 * time.Millisecond,
		RetryBase: 10 * time.Millisecond,
		RetryMax:  100 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ff.f = f
	f.Start()
	t.Cleanup(f.Stop)
	return ff
}

// waitConverged polls until the follower reports zero lag and its point
// table matches want, or fails after 15s.
func waitConverged(t *testing.T, ff *followerFixture, wantLen int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := ff.f.Stats()
		if st.Bootstrapped && st.LagRecords == 0 {
			if ix := ff.index(); ix != nil && ix.Len() == wantLen {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower did not converge to %d points: stats %+v", wantLen, ff.f.Stats())
}

// sameAnswers asserts bitwise-identical nearest-neighbor answers — the
// protocol's exactness claim, not an approximate-agreement check.
func sameAnswers(t *testing.T, a, b *shard.Sharded, queries int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < queries; i++ {
		q := make(vec.Point, testDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		na, err := a.NearestNeighbor(q)
		if err != nil {
			t.Fatalf("primary query: %v", err)
		}
		nb, err := b.NearestNeighbor(q)
		if err != nil {
			t.Fatalf("follower query: %v", err)
		}
		if na.ID != nb.ID || math.Float64bits(na.Dist2) != math.Float64bits(nb.Dist2) {
			t.Fatalf("query %d diverged: primary (%d, %x) follower (%d, %x)",
				i, na.ID, math.Float64bits(na.Dist2), nb.ID, math.Float64bits(nb.Dist2))
		}
	}
}

// TestFollowerConvergesAndMatches: a follower bootstraps from a live
// primary, tails mutations happening concurrently, reaches lag 0, and
// answers queries bit-for-bit identically.
func TestFollowerConvergesAndMatches(t *testing.T) {
	p := newPrimaryFixture(t, 150)
	ff := startFollower(t, p.ts.URL)

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 120; i++ {
		pt := make(vec.Point, testDim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		if _, err := p.ix.Insert(pt); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%7 == 3 {
			if err := p.ix.Delete(i / 2); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
	}
	p.ix.RepairWait()
	waitConverged(t, ff, p.ix.Len())
	sameAnswers(t, p.ix, ff.index(), 60, 23)
	if st := ff.f.Stats(); st.Bootstraps != 1 {
		t.Fatalf("expected exactly one bootstrap, got %d", st.Bootstraps)
	}
}

// TestFollowerFromEmptyPrimary: a primary bootstrapped with zero points (the
// default one-shard `serve -n 0`) must ship a snapshot a follower can load,
// and the follower must then apply the primary's first insert.
func TestFollowerFromEmptyPrimary(t *testing.T) {
	ix, err := shard.NewEmpty(testDim, vec.UnitCube(testDim), testOptions)
	if err != nil {
		t.Fatal(err)
	}
	p := servePrimary(t, ix)
	ff := startFollower(t, p.ts.URL)
	waitConverged(t, ff, 0)

	if _, err := p.ix.Insert(vec.Point{0.25, 0.5, 0.75}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, ff, 1)
	sameAnswers(t, p.ix, ff.index(), 20, 41)
	if st := ff.f.Stats(); st.Bootstraps != 1 {
		t.Fatalf("expected exactly one bootstrap, got %d", st.Bootstraps)
	}
}

// TestFollowerRebootstrapsOnBootChange: swapping the Source (a primary
// restart: same data, new boot id, reset positions) must push the follower
// through a clean re-bootstrap, after which it converges again.
func TestFollowerRebootstrapsOnBootChange(t *testing.T) {
	p := newPrimaryFixture(t, 100)
	var cur atomic.Value // http.Handler
	cur.Store(http.Handler(p.src))
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	ff := startFollower(t, proxy.URL)
	waitConverged(t, ff, p.ix.Len())

	// "Restart" the primary: a new Source mints a new boot id.
	src2, err := NewSource(p.ix, p.mem)
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(http.Handler(src2))
	if _, err := p.ix.Insert(vec.Point{0.42, 0.17, 0.88}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := ff.f.Stats(); st.Bootstraps >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := ff.f.Stats(); st.Bootstraps < 2 {
		t.Fatalf("follower never re-bootstrapped: %+v", st)
	}
	waitConverged(t, ff, p.ix.Len())
	sameAnswers(t, p.ix, ff.index(), 40, 31)
}

// TestFollowerRebootstrapsAfterCompaction: while the follower's stream
// requests are refused, the primary rotates and compacts past the
// follower's tail position; on reconnect the 410 must trigger a
// re-bootstrap, not an error loop or silent divergence.
func TestFollowerRebootstrapsAfterCompaction(t *testing.T) {
	p := newPrimaryFixture(t, 100)
	var gate atomic.Bool // true = refuse stream requests
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gate.Load() && r.URL.Query().Get("seq") != "" {
			http.Error(w, "maintenance", http.StatusServiceUnavailable)
			return
		}
		p.src.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	ff := startFollower(t, proxy.URL)
	waitConverged(t, ff, p.ix.Len())

	gate.Store(true)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		pt := make(vec.Point, testDim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		if _, err := p.ix.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot-and-compact twice: the first seals the segment the follower
	// was tailing; the second removes it.
	for round := 0; round < 2; round++ {
		cuts, err := p.ix.RotateWAL()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ix.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := p.ix.CompactWAL(cuts); err != nil {
			t.Fatal(err)
		}
	}
	gate.Store(false)

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := ff.f.Stats(); st.Bootstraps >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := ff.f.Stats(); st.Bootstraps < 2 {
		t.Fatalf("follower never re-bootstrapped after compaction: %+v", st)
	}
	waitConverged(t, ff, p.ix.Len())
	sameAnswers(t, p.ix, ff.index(), 40, 37)
}

// TestShardedReplication replicates a sharded primary: one log per shard,
// records routed into the matching follower shard, answers bitwise equal.
func TestShardedReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := dataset.Deduplicate(dataset.Uniform(rng, 200, testDim))
	sx, err := shard.Build(pts, vec.UnitCube(testDim), shard.Options{
		Shards: 4,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.Sphere},
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := iofault.NewMem()
	if err := sx.OpenWALs("walroot", wal.Options{FS: mem}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sx.Close() })
	src, err := NewSource(sx, mem)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(src)
	t.Cleanup(ts.Close)

	var repBox atomic.Pointer[shard.Sharded]
	f, err := NewFollower(Config{
		Primary: ts.URL,
		Load: func(r io.Reader) (*shard.Sharded, error) {
			return shard.Load(r, shard.Options{Pager: pager.Config{CachePages: 64}})
		},
		OnReplica: func(ix *shard.Sharded) { repBox.Store(ix) },
		PollWait:  30 * time.Millisecond,
		RetryBase: 10 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)

	for i := 0; i < 80; i++ {
		pt := make(vec.Point, testDim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		if _, err := sx.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	sx.RepairWait()

	deadline := time.Now().Add(15 * time.Second)
	var fx *shard.Sharded
	for time.Now().Before(deadline) {
		st := f.Stats()
		if st.Bootstrapped && st.LagRecords == 0 {
			if fx = repBox.Load(); fx != nil && fx.Len() == sx.Len() {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fx == nil || fx.Len() != sx.Len() {
		t.Fatalf("sharded follower did not converge: %+v", f.Stats())
	}
	for i := 0; i < 50; i++ {
		q := make(vec.Point, testDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		na, err := sx.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := fx.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if na.ID != nb.ID || math.Float64bits(na.Dist2) != math.Float64bits(nb.Dist2) {
			t.Fatalf("sharded query %d diverged: (%d, %v) vs (%d, %v)", i, na.ID, na.Dist2, nb.ID, nb.Dist2)
		}
	}
}

// TestIngestEveryOffsetTruncation is the shipping-path crash matrix at the
// apply level (the satellite acceptance test): for EVERY byte offset at
// which a shipped segment transfer can be cut, the follower's state must be
// its old apply position or advanced by whole records — never torn.
func TestIngestEveryOffsetTruncation(t *testing.T) {
	// A small primary so the O(bytes × loads) matrix stays fast.
	rng := rand.New(rand.NewSource(3))
	pts := dataset.Deduplicate(dataset.Uniform(rng, 24, 2))
	ix, err := shard.Build(pts, vec.UnitCube(2), testOptions)
	if err != nil {
		t.Fatal(err)
	}
	mem := iofault.NewMem()
	if err := ix.OpenWALs("wal", wal.Options{FS: mem}); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	l := ix.Shard(0).WAL()

	// The snapshot is the follower's bootstrap state; everything after it
	// lives in the (currently empty) active segment — the shipped unit.
	var snap writerBuffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	lens := []int{ix.Len()}
	for i := 0; i < 10; i++ {
		pt := make(vec.Point, 2)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		if _, err := ix.Insert(pt); err != nil {
			t.Fatal(err)
		}
		lens = append(lens, ix.Len())
		if i == 4 {
			if err := ix.Delete(2); err != nil {
				t.Fatal(err)
			}
			lens = append(lens, ix.Len())
		}
	}
	seg, ok := mem.Bytes(l.ActiveSegmentPath())
	if !ok {
		t.Fatal("active segment missing")
	}

	// Record boundaries from one clean full parse.
	boundaries := map[int64]int{0: 0, 8: 0}
	{
		var c wal.Cursor
		c.Feed(seg)
		n := 0
		for {
			_, ok, err := c.Next()
			if err != nil {
				t.Fatalf("clean parse: %v", err)
			}
			if !ok {
				break
			}
			n++
			boundaries[c.Offset()] = n
		}
		if n != len(lens)-1 {
			t.Fatalf("segment has %d records, expected %d", n, len(lens)-1)
		}
	}

	for cut := 0; cut <= len(seg); cut++ {
		rep, err := shard.Load(newReadBuffer(snap.b), shard.Options{Pager: pager.Config{CachePages: 16}})
		if err != nil {
			t.Fatalf("cut %d: load: %v", cut, err)
		}
		cur := &wal.Cursor{}
		applied, torn, err := ingest(cur, seg[:cut], false, func(rec wal.Record) error {
			_, aerr := rep.Shard(0).ApplyLogRecord(rec)
			return aerr
		})
		if err != nil {
			t.Fatalf("cut %d: a clean truncation must parse as a slow stream, got %v", cut, err)
		}
		if torn {
			t.Fatalf("cut %d: active-segment prefix misreported as torn", cut)
		}
		want, onBoundary := boundaries[cur.Offset()]
		if !onBoundary {
			t.Fatalf("cut %d: apply position %d is not a whole-record boundary", cut, cur.Offset())
		}
		if applied != want {
			t.Fatalf("cut %d: applied %d records at offset %d, want %d", cut, applied, cur.Offset(), want)
		}
		if rep.Len() != lens[want] {
			t.Fatalf("cut %d: follower has %d points after %d records, want %d", cut, rep.Len(), applied, lens[want])
		}
	}
}

// TestSourceStreamTornMidTransfer drives the iofault short-read path: the
// segment file shrinks below the advertised shippable size mid-transfer
// (a torn transfer image); the source must ship the shorter prefix and the
// cursor must keep the follower on a whole-record boundary.
func TestSourceStreamTornMidTransfer(t *testing.T) {
	p := newPrimaryFixture(t, 60)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20; i++ {
		pt := make(vec.Point, testDim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		if _, err := p.ix.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	l := p.ix.Shard(0).WAL()
	path := l.ActiveSegmentPath()
	full, _ := p.mem.Bytes(path)
	info, err := l.SegmentsInfo()
	if err != nil {
		t.Fatal(err)
	}
	seq := info.Segments[len(info.Segments)-1].Seq

	// Tear the file to an arbitrary mid-record offset AFTER the manifest
	// has advertised the full size.
	p.mem.TruncateFile(path, len(full)-3)

	resp, err := http.Get(fmt.Sprintf("%s/v1/repl/stream?log=0&seq=%d&off=0&wait=0", p.ts.URL, seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= len(full) {
		t.Fatalf("torn transfer shipped %d bytes, file only has %d", len(body), len(full)-3)
	}
	var c wal.Cursor
	n := 0
	_, torn, err := ingest(&c, body, false, func(wal.Record) error { n++; return nil })
	if err != nil || torn {
		t.Fatalf("ingest of torn transfer: applied=%d torn=%v err=%v", n, torn, err)
	}
	if c.Offset() == 0 || c.Buffered() == 0 {
		t.Fatalf("expected whole records plus a buffered partial tail, got off=%d buffered=%d", c.Offset(), c.Buffered())
	}
}

// writerBuffer/readBuffer: minimal in-memory snapshot transport without
// pulling in bytes.Buffer's Reader aliasing subtleties.
type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type readBuffer struct {
	b   []byte
	off int
	mu  sync.Mutex
}

func newReadBuffer(b []byte) *readBuffer { return &readBuffer{b: b} }

func (r *readBuffer) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
