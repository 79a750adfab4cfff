package main

import (
	"math/rand"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/shard"
	"repro/internal/vec"
)

// workload is one traffic mix against one index shape. Every workload uses
// uniform data in the unit cube, NN-Direction constraint selection, grid
// routing over four shards and a 16 384-entry result cache.
type workload struct {
	name string
	n, d int

	// Closed loop: two clients, each sending its next request when the
	// previous answer arrives.
	knnEvery int // every knnEvery-th request of a client is /v1/knn (0: none)
	knnK     int
	pool     int     // >0: /v1/nn queries are Zipf draws from a pool of this many points
	zipfS    float64 // Zipf exponent of the pool draws

	// Open loop: one connection reads at readRate, the other alternates
	// insert and delete at writeRate; both on a fixed schedule.
	open      bool
	readRate  float64 // requests per second
	writeRate float64 // requests per second, inserts and deletes together
	writeLag  int     // inserted points kept live before the first delete
	wal       bool    // per-shard WALs, fsync every 100 ms
}

const (
	shards       = 4
	pagerPages   = 64 // per-shard pager cache, the serve default
	cacheEntries = 16384
	clients      = 2
	setups       = 3 // set-up repetitions per run; setup_s is their median
)

var workloads = []workload{
	{name: "nn-d8-unique", n: 10000, d: 8, knnEvery: 10, knnK: 10},
	{name: "nn-d4-hot", n: 20000, d: 4, pool: 8192, zipfS: 1.1},
	{name: "mixed-d4-churn", n: 20000, d: 4, open: true, readRate: 500, writeRate: 1, writeLag: 8, wal: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// indexOptions is the index shape every workload serves.
func indexOptions() shard.Options {
	return shard.Options{
		Shards: shards,
		Route:  shard.RouteGrid,
		Pager:  pager.Config{CachePages: pagerPages},
		Index:  nncell.Options{Algorithm: nncell.NNDirection},
	}
}

// Stream tags: each input stream draws from its own generator derived from
// the seed, so the same seed always yields the same data and queries.
const (
	tagData = iota + 1
	tagPool
	tagWarmup
	tagMeasure
	tagTraced
	tagWriter
	tagCheck
)

func rngFor(seed int64, tag, sub int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(tag)*1009 + int64(sub)))
}

func uniformPoint(rng *rand.Rand, d int) vec.Point {
	p := make(vec.Point, d)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

// query is one read request of a stream.
type query struct {
	p    vec.Point
	pool int // index into the hot pool, or -1
	knn  bool
}

// stream generates one client's read requests.
type stream struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	pool []vec.Point
	i    int
}

func newStream(w *workload, pool []vec.Point, rng *rand.Rand) *stream {
	s := &stream{w: w, rng: rng, pool: pool}
	if len(pool) > 0 {
		s.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(len(pool)-1))
	}
	return s
}

func (s *stream) next() query {
	i := s.i
	s.i++
	if s.zipf != nil {
		k := int(s.zipf.Uint64())
		return query{p: s.pool[k], pool: k}
	}
	return query{
		p:    uniformPoint(s.rng, s.w.d),
		pool: -1,
		knn:  s.w.knnEvery > 0 && i%s.w.knnEvery == s.w.knnEvery-1,
	}
}
