package main

import (
	"time"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// replayQueries is how many queries of the measured stream each replay
// times on one goroutine, with no HTTP in the way.
const replayQueries = 2000

// replays are the per-query medians (µs) of the off-clock replays: the
// layers on their own, and the two trivial exact baselines over the same
// points and queries.
type replays struct {
	shardNN, shardKNN, candidates, cacheGet float64
	scanNN, dataTreeNN                      float64
}

// timeEach returns the median time of f over the queries, in µs.
func timeEach(qs []vec.Point, f func(q vec.Point)) float64 {
	ts := make(samples, len(qs))
	for i, q := range qs {
		t0 := time.Now()
		f(q)
		ts[i] = micros(time.Since(t0))
	}
	return sorted(ts).quantile(0.5)
}

func runReplays(sh *shard.Sharded, cache *rescache.Cache, live []vec.Point, qs []vec.Point, k int) replays {
	var r replays
	r.shardNN = timeEach(qs, func(q vec.Point) { sh.NearestNeighbor(q) })
	var nbs []nncell.Neighbor
	r.shardKNN = timeEach(qs, func(q vec.Point) { nbs, _ = sh.KNearestAppend(nbs[:0], q, k) })
	var ids []int
	r.candidates = timeEach(qs, func(q vec.Point) { ids = sh.CandidatesAppend(ids[:0], q) })
	r.cacheGet = timeEach(qs, func(q vec.Point) { cache.Get(q) })

	sc := scan.New(live, vec.Euclidean{}, pager.New(pager.Config{}))
	r.scanNN = timeEach(qs, func(q vec.Point) { sc.Nearest(q) })

	items := make([]xtree.Entry, len(live))
	for i, p := range live {
		items[i] = xtree.Entry{Rect: vec.PointRect(p), Data: int64(i)}
	}
	tree := xtree.BulkLoad(len(live[0]), pager.New(pager.Config{CachePages: pagerPages}), xtree.Options{}, items)
	qc := &xtree.QueryCtx{}
	r.dataTreeNN = timeEach(qs, func(q vec.Point) { tree.NearestNeighborCtx(qc, q) })
	return r
}
