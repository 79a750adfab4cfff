// Package pager simulates the paged secondary storage underneath every index
// structure in this repository. The paper's experiments run all structures
// with the same block size (4 KBytes) and the same amount of cache, and report
// page accesses separately from CPU time; this package reproduces that
// accounting model.
//
// Nodes live in Go memory — the pager is the bookkeeping layer that decides,
// for every logical page access, whether it would have been a cache hit or a
// physical disk read, using an LRU cache with a fixed page budget. A
// configurable DiskModel converts miss counts into estimated I/O time so that
// "total search time" can be reported the way the paper does (Fig. 7/10/11),
// on hardware where the actual disk no longer dominates.
//
// Accesses and writes allocate nothing and hash nothing. Page ids are dense
// (freed ids are reused, so they stay below the peak live page count), and all
// per-page state sits in one id-indexed slice: a live flag, a cached flag
// and the prev/next links of an intrusive doubly linked LRU list whose
// sentinel is the never-allocated id 0. A hit is a flag test and a relink; a
// miss links the page in and, past the budget, unlinks the list's tail.
//
// Concurrency: a single mutex guards the LRU and the counters, so page
// accounting from concurrent queries is serialized. That keeps every count
// exact and the hit/miss sequence that of one global LRU, as the paper's
// figures need. The critical section is short and allocation-free: see
// BenchmarkAccessHit (hit), BenchmarkAccessSerial and
// BenchmarkAccessParallel (miss plus eviction, one and many goroutines), and
// DESIGN.md §9 for measured numbers. The query engines take the lock once
// per search (AccessRun over the whole visit order), not once per node.
package pager

import (
	"fmt"
	"sync"
	"time"
)

// PageID identifies a simulated disk page. The zero value is never allocated
// and can be used as a sentinel.
type PageID uint64

// DefaultPageSize is the paper's experimental block size (4 KBytes).
const DefaultPageSize = 4096

// Config controls a Pager instance.
type Config struct {
	// PageSize is the block size in bytes. Defaults to DefaultPageSize.
	PageSize int
	// CachePages is the LRU budget in pages. Zero means no cache: every
	// access is a miss.
	CachePages int
}

// Stats is a snapshot of the access counters.
type Stats struct {
	// Accesses counts logical page reads.
	Accesses uint64
	// Hits and Misses partition Accesses by cache outcome.
	Hits, Misses uint64
	// Writes counts page writes (write-through; a write also caches the page).
	Writes uint64
	// Allocs and Frees count page lifetime events.
	Allocs, Frees uint64
}

// DiskModel converts page-level counters into estimated I/O time. The default
// reflects the paper-era random-access disk (about 8 ms per random page read).
type DiskModel struct {
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// DefaultDiskModel is an HP-720-era disk: 8 ms random read, 10 ms write.
var DefaultDiskModel = DiskModel{ReadLatency: 8 * time.Millisecond, WriteLatency: 10 * time.Millisecond}

// IOTime estimates the physical I/O time implied by the counters.
func (m DiskModel) IOTime(s Stats) time.Duration {
	return time.Duration(s.Misses)*m.ReadLatency + time.Duration(s.Writes)*m.WriteLatency
}

// Pager is a simulated paged store with an LRU cache. It is safe for
// concurrent use.
type Pager struct {
	mu       sync.Mutex
	pageSize int
	cacheCap int
	// pages is indexed by PageID. Slot 0 is never allocated and serves as
	// the sentinel of the circular LRU list threaded through the cached
	// slots: pages[0].next is the most recently used page, pages[0].prev the
	// least recently used.
	pages  []page
	free   []PageID // freed ids, reused last-in first-out by Alloc
	live   int
	cached int
	stats  Stats
}

// page is the per-id state of a Pager: lifetime and cache flags, and the
// LRU links (meaningful while cached).
type page struct {
	prev, next   PageID
	live, cached bool
}

// New returns a Pager with the given configuration.
func New(cfg Config) *Pager {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.CachePages < 0 {
		cfg.CachePages = 0
	}
	return &Pager{
		pageSize: cfg.PageSize,
		cacheCap: cfg.CachePages,
		pages:    make([]page, 1),
	}
}

// PageSize returns the configured block size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// CachePages returns the configured cache budget in pages.
func (p *Pager) CachePages() int { return p.cacheCap }

// Alloc reserves a page and returns its id. Ids of freed pages are reused;
// a freed page is uncached, so reuse changes no count. Freshly allocated
// pages are not cached; the first Access after Alloc without an intervening
// Write is a miss, matching a build that writes pages out as it goes.
func (p *Pager) Alloc() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocLocked()
}

func (p *Pager) allocLocked() PageID {
	var id PageID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = PageID(len(p.pages))
		p.pages = append(p.pages, page{})
	}
	p.pages[id].live = true
	p.live++
	p.stats.Allocs++
	return id
}

// AllocRun reserves n pages (an X-tree supernode) and returns their ids.
func (p *Pager) AllocRun(n int) []PageID {
	ids := make([]PageID, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range ids {
		ids[i] = p.allocLocked()
	}
	return ids
}

// mustLive panics unless id is allocated and not freed: touching any other
// id indicates index-structure corruption, not a runtime condition.
func (p *Pager) mustLive(op string, id PageID) {
	if id >= PageID(len(p.pages)) || !p.pages[id].live {
		panic(fmt.Sprintf("pager: %s of non-live page %d", op, id))
	}
}

// Free releases a page and drops it from the cache. Freeing an unknown page
// panics.
func (p *Pager) Free(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mustLive("Free", id)
	if p.pages[id].cached {
		p.unlink(id)
	}
	p.pages[id].live = false
	p.live--
	p.free = append(p.free, id)
	p.stats.Frees++
}

// Access records a logical read of the page and reports whether it was a
// cache hit. Accessing a non-live page panics.
func (p *Pager) Access(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accessLocked(id)
}

// AccessRun records reads of all pages of a multi-page node, or of a whole
// query's visit order, under one lock acquisition.
func (p *Pager) AccessRun(ids []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		p.accessLocked(id)
	}
}

func (p *Pager) accessLocked(id PageID) bool {
	p.mustLive("Access", id)
	p.stats.Accesses++
	if p.pages[id].cached {
		p.unlink(id)
		p.pushFront(id)
		p.stats.Hits++
		return true
	}
	p.stats.Misses++
	p.insertLocked(id)
	return false
}

// Write records a write-through page write and caches the page.
func (p *Pager) Write(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mustLive("Write", id)
	p.stats.Writes++
	if p.pages[id].cached {
		p.unlink(id)
		p.pushFront(id)
		return
	}
	p.insertLocked(id)
}

// insertLocked caches an uncached page as most recently used and evicts the
// least recently used page if that exceeds the budget.
func (p *Pager) insertLocked(id PageID) {
	if p.cacheCap == 0 {
		return
	}
	p.pushFront(id)
	if p.cached > p.cacheCap {
		p.unlink(p.pages[0].prev)
	}
}

// pushFront links an uncached page in at the most recently used end.
func (p *Pager) pushFront(id PageID) {
	pg := p.pages
	first := pg[0].next
	pg[id].prev, pg[id].next, pg[id].cached = 0, first, true
	pg[first].prev = id
	pg[0].next = id
	p.cached++
}

// unlink removes a cached page from the LRU list.
func (p *Pager) unlink(id PageID) {
	pg := p.pages
	prev, next := pg[id].prev, pg[id].next
	pg[prev].next = next
	pg[next].prev = prev
	pg[id].cached = false
	p.cached--
}

// DropCache empties the LRU, simulating a cold start. Counters are preserved.
func (p *Pager) DropCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := p.pages[0].next; id != 0; id = p.pages[id].next {
		p.pages[id].cached = false
	}
	p.pages[0] = page{}
	p.cached = 0
}

// Stats returns a snapshot of the counters.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters (the cache content is kept). Use between the
// build phase and the measured query phase of an experiment.
func (p *Pager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// LivePages returns the number of allocated, unfreed pages (index size on
// disk in pages).
func (p *Pager) LivePages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Capacity returns how many fixed-size entries of entryBytes fit on one page,
// at least 1. Index structures use it to derive their fanout from the block
// size the way a disk-resident implementation would.
func (p *Pager) Capacity(entryBytes int) int {
	if entryBytes <= 0 {
		panic("pager: non-positive entry size")
	}
	c := p.pageSize / entryBytes
	if c < 1 {
		c = 1
	}
	return c
}
