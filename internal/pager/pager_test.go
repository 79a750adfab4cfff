package pager

import (
	"container/list"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.PageSize() != DefaultPageSize {
		t.Errorf("PageSize = %d, want %d", p.PageSize(), DefaultPageSize)
	}
	if p.CachePages() != 0 {
		t.Errorf("CachePages = %d, want 0", p.CachePages())
	}
	p = New(Config{PageSize: 8192, CachePages: -5})
	if p.PageSize() != 8192 || p.CachePages() != 0 {
		t.Errorf("config not normalized: %d/%d", p.PageSize(), p.CachePages())
	}
}

func TestAllocAccessFree(t *testing.T) {
	p := New(Config{CachePages: 2})
	a := p.Alloc()
	b := p.Alloc()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("bad ids: %d, %d", a, b)
	}
	if hit := p.Access(a); hit {
		t.Error("first access was a hit")
	}
	if hit := p.Access(a); !hit {
		t.Error("second access was a miss")
	}
	p.Free(a)
	s := p.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Allocs != 2 || s.Frees != 1 {
		t.Errorf("stats = %+v", s)
	}
	if p.LivePages() != 1 {
		t.Errorf("LivePages = %d, want 1", p.LivePages())
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(Config{CachePages: 2})
	a, b, c := p.Alloc(), p.Alloc(), p.Alloc()
	p.Access(a) // cache: [a]
	p.Access(b) // cache: [b a]
	p.Access(a) // cache: [a b]
	p.Access(c) // evicts b; cache: [c a]
	if hit := p.Access(b); hit {
		t.Error("evicted page b reported as hit")
	}
	// b's re-access evicted a (LRU order was [b c a] -> trim a).
	if hit := p.Access(c); !hit {
		t.Error("c should still be cached")
	}
	if hit := p.Access(a); hit {
		t.Error("a should have been evicted")
	}
}

func TestZeroCacheAlwaysMisses(t *testing.T) {
	p := New(Config{CachePages: 0})
	id := p.Alloc()
	for i := 0; i < 5; i++ {
		if p.Access(id) {
			t.Fatal("hit with zero cache")
		}
	}
	if s := p.Stats(); s.Misses != 5 {
		t.Errorf("misses = %d, want 5", s.Misses)
	}
}

func TestWriteCaches(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Write(id)
	if !p.Access(id) {
		t.Error("access after write was a miss")
	}
	s := p.Stats()
	if s.Writes != 1 {
		t.Errorf("writes = %d, want 1", s.Writes)
	}
}

func TestDropCache(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Access(id)
	p.DropCache()
	if p.Access(id) {
		t.Error("hit after DropCache")
	}
}

func TestResetStatsKeepsCache(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Access(id)
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("stats not zeroed: %+v", s)
	}
	if !p.Access(id) {
		t.Error("cache content lost by ResetStats")
	}
}

func TestAllocRunAndAccessRun(t *testing.T) {
	p := New(Config{CachePages: 10})
	ids := p.AllocRun(3)
	if len(ids) != 3 || ids[0] == ids[1] {
		t.Fatalf("AllocRun = %v", ids)
	}
	p.AccessRun(ids)
	if s := p.Stats(); s.Accesses != 3 || s.Misses != 3 {
		t.Errorf("stats = %+v", s)
	}
	p.AccessRun(ids)
	if s := p.Stats(); s.Hits != 3 {
		t.Errorf("stats after rerun = %+v", s)
	}
}

func TestFreeDropsFromCache(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Access(id)
	p.Free(id)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("access of freed page did not panic")
			}
		}()
		p.Access(id)
	}()
	// The freed id is reused, and the reused page starts uncached.
	id2 := p.Alloc()
	if id2 != id {
		t.Errorf("Alloc after Free = %d, want reused id %d", id2, id)
	}
	if p.Access(id2) {
		t.Error("first access of a reallocated page was a hit")
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	p := New(Config{})
	defer func() {
		if recover() == nil {
			t.Error("Free of unknown page did not panic")
		}
	}()
	p.Free(42)
}

func TestCapacity(t *testing.T) {
	p := New(Config{PageSize: 4096})
	if got := p.Capacity(136); got != 30 {
		t.Errorf("Capacity(136) = %d, want 30", got)
	}
	if got := p.Capacity(10000); got != 1 {
		t.Errorf("Capacity(huge) = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Capacity(0) did not panic")
		}
	}()
	p.Capacity(0)
}

func TestDiskModel(t *testing.T) {
	s := Stats{Misses: 10, Writes: 2}
	got := DefaultDiskModel.IOTime(s)
	want := 10*8*time.Millisecond + 2*10*time.Millisecond
	if got != want {
		t.Errorf("IOTime = %v, want %v", got, want)
	}
}

// Cache occupancy never exceeds the configured budget, and hits+misses always
// equals accesses — under arbitrary random workloads.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capPages := int(capRaw % 8)
		p := New(Config{CachePages: capPages})
		var ids []PageID
		for op := 0; op < 200; op++ {
			switch {
			case len(ids) == 0 || rng.Float64() < 0.3:
				ids = append(ids, p.Alloc())
			case rng.Float64() < 0.1:
				i := rng.Intn(len(ids))
				p.Free(ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			default:
				p.Access(ids[rng.Intn(len(ids))])
			}
			if p.cached > capPages {
				return false
			}
		}
		s := p.Stats()
		return s.Hits+s.Misses == s.Accesses && p.LivePages() == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(Config{CachePages: 16})
	ids := p.AllocRun(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				p.Access(ids[rng.Intn(len(ids))])
			}
		}(int64(w))
	}
	wg.Wait()
	if s := p.Stats(); s.Accesses != 8000 || s.Hits+s.Misses != 8000 {
		t.Errorf("stats = %+v", s)
	}
}

// refPager is the reference model of the differential test: the textbook
// LRU over a map and a container/list, with the Pager's semantics. It never
// reuses ids.
type refPager struct {
	cacheCap int
	lru      *list.List // front = most recently used; values are PageID
	loc      map[PageID]*list.Element
	live     map[PageID]struct{}
	next     PageID
	stats    Stats
}

func newRefPager(cachePages int) *refPager {
	return &refPager{
		cacheCap: cachePages,
		lru:      list.New(),
		loc:      make(map[PageID]*list.Element),
		live:     make(map[PageID]struct{}),
		next:     1,
	}
}

func (p *refPager) Alloc() PageID {
	id := p.next
	p.next++
	p.live[id] = struct{}{}
	p.stats.Allocs++
	return id
}

func (p *refPager) Free(id PageID) {
	if _, ok := p.live[id]; !ok {
		panic("refPager: Free of non-live page")
	}
	delete(p.live, id)
	if el, ok := p.loc[id]; ok {
		p.lru.Remove(el)
		delete(p.loc, id)
	}
	p.stats.Frees++
}

func (p *refPager) Access(id PageID) bool {
	if _, ok := p.live[id]; !ok {
		panic("refPager: Access of non-live page")
	}
	p.stats.Accesses++
	if el, ok := p.loc[id]; ok {
		p.lru.MoveToFront(el)
		p.stats.Hits++
		return true
	}
	p.stats.Misses++
	p.insert(id)
	return false
}

func (p *refPager) Write(id PageID) {
	if _, ok := p.live[id]; !ok {
		panic("refPager: Write of non-live page")
	}
	p.stats.Writes++
	if el, ok := p.loc[id]; ok {
		p.lru.MoveToFront(el)
		return
	}
	p.insert(id)
}

func (p *refPager) insert(id PageID) {
	if p.cacheCap == 0 {
		return
	}
	p.loc[id] = p.lru.PushFront(id)
	for p.lru.Len() > p.cacheCap {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.loc, back.Value.(PageID))
	}
}

func (p *refPager) DropCache() {
	p.lru.Init()
	p.loc = make(map[PageID]*list.Element)
}

// TestMatchesReferenceLRU drives the Pager and the reference model with the
// same seeded operation sequence. Pages are tracked as handles, each with
// its id in both models (the Pager reuses freed ids, the model does not).
// Every Access must agree on hit or miss, and after every operation the
// counters, the live count and the LRU order (as handles) must agree.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, capPages := range []int{0, 1, 7, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cache=%d/seed=%d", capPages, seed), func(t *testing.T) {
				checkAgainstReference(t, capPages, seed)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, capPages int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p, ref := New(Config{CachePages: capPages}), newRefPager(capPages)
	type handle struct{ id, ref PageID }
	var hs []handle
	alloc := func(n int) {
		ids := p.AllocRun(n)
		for _, id := range ids {
			hs = append(hs, handle{id, ref.Alloc()})
		}
	}
	var run, refRun []PageID
	for op := 0; op < 3000; op++ {
		r := rng.Float64()
		switch {
		case len(hs) == 0 || r < 0.10:
			alloc(1)
		case r < 0.13:
			alloc(1 + rng.Intn(4))
		case r < 0.22:
			i := rng.Intn(len(hs))
			p.Free(hs[i].id)
			ref.Free(hs[i].ref)
			hs[i] = hs[len(hs)-1]
			hs = hs[:len(hs)-1]
		case r < 0.60:
			h := hs[rng.Intn(len(hs))]
			if got, want := p.Access(h.id), ref.Access(h.ref); got != want {
				t.Fatalf("op %d: Access hit = %v, reference %v", op, got, want)
			}
		case r < 0.80:
			run, refRun = run[:0], refRun[:0]
			for n := rng.Intn(12); n > 0; n-- {
				h := hs[rng.Intn(len(hs))]
				run, refRun = append(run, h.id), append(refRun, h.ref)
			}
			p.AccessRun(run)
			for _, id := range refRun {
				ref.Access(id)
			}
		case r < 0.97:
			h := hs[rng.Intn(len(hs))]
			p.Write(h.id)
			ref.Write(h.ref)
		case r < 0.985:
			p.DropCache()
			ref.DropCache()
		default:
			p.ResetStats()
			ref.stats = Stats{}
		}
		if got, want := p.Stats(), ref.stats; got != want {
			t.Fatalf("op %d: Stats = %+v, reference %+v", op, got, want)
		}
		if got, want := p.LivePages(), len(ref.live); got != want {
			t.Fatalf("op %d: LivePages = %d, reference %d", op, got, want)
		}
		if p.cached != ref.lru.Len() {
			t.Fatalf("op %d: %d cached pages, reference %d", op, p.cached, ref.lru.Len())
		}
		toRef := make(map[PageID]PageID, len(hs))
		for _, h := range hs {
			toRef[h.id] = h.ref
		}
		el := ref.lru.Front()
		for id := p.pages[0].next; id != 0; id = p.pages[id].next {
			if el == nil || toRef[id] != el.Value.(PageID) {
				t.Fatalf("op %d: LRU order differs from the reference", op)
			}
			el = el.Next()
		}
	}
}

// A warm pager's access path allocates nothing, misses and evictions
// included.
func TestAccessRunZeroAllocs(t *testing.T) {
	p := New(Config{CachePages: 8})
	ids := p.AllocRun(32)
	p.AccessRun(ids)
	p.ResetStats()
	allocs := testing.AllocsPerRun(100, func() {
		p.AccessRun(ids)
		p.Write(ids[3])
		p.Access(ids[0])
	})
	if allocs != 0 {
		t.Errorf("AccessRun allocates %v per run, want 0", allocs)
	}
	// Cycling 32 pages through 8 slots misses (and evicts) at least 24
	// times per run.
	if st := p.Stats(); st.Misses < 100*24 {
		t.Errorf("misses = %d: the run did not exercise the miss path", st.Misses)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	p := New(Config{CachePages: 1})
	id := p.Alloc()
	p.Access(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(id)
	}
}

// The serial/parallel pair below measures the pager's single global mutex
// under the serving layer's concurrent-query access pattern, on the miss and
// eviction path (256 pages cycled through a 64-page cache). See the package
// doc comment and DESIGN.md §9 for measured numbers.

func BenchmarkAccessSerial(b *testing.B) {
	p := New(Config{CachePages: 64})
	ids := p.AllocRun(256)
	for _, id := range ids {
		p.Access(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(ids[i%len(ids)])
	}
}

func BenchmarkAccessParallel(b *testing.B) {
	p := New(Config{CachePages: 64})
	ids := p.AllocRun(256)
	for _, id := range ids {
		p.Access(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p.Access(ids[i%len(ids)])
			i++
		}
	})
}
