package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
)

// options control one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // WAL directories and span files
}

// finalQueries is the query sample checked against a scan of the live set
// after the churn stops.
const finalQueries = 500

// counters is a snapshot of every counter the per-layer figures difference.
type counters struct {
	cache rescache.Stats
	index nncell.Stats
	route shard.RouteStats
	pager pager.Stats
	wal   wal.Stats
	at    time.Time
}

func snapshot(st *stack) counters {
	return counters{
		cache: st.cache.Stats(),
		index: st.sh.Stats(),
		route: st.sh.RouteStats(),
		pager: st.sh.PagerStats(),
		wal:   st.sh.WALStats(),
		at:    time.Now(),
	}
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// phase is one measured stretch of load.
type phase struct {
	reads, writes *tally
	wall          time.Duration
}

// runWorkload sets the stack up several times, drives it, checks the
// answers and returns the figures. With o.trace the measured time is split
// into an untraced half and a traced half, and the per-layer figures come
// from the traced half.
func runWorkload(w workload, o options) (*report, error) {
	rep := &report{workload: w.name, trace: o.trace, metrics: map[string]value{}}
	pts := dataset.Uniform(rngFor(o.seed, tagData, 0), w.n, w.d)
	orc := newOracle(pts)
	var pool []vec.Point
	var poolAns poolAnswers
	if w.pool > 0 {
		pool = dataset.Uniform(rngFor(o.seed, tagPool, 0), w.pool, w.d)
		poolAns = orc.poolOracle(pool)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	heap0 := heapMB()
	var builds, readies, totals samples
	var st *stack
	for i := 0; i < setups; i++ {
		s, err := buildStack(&w, pts, o.workDir, tr)
		if err != nil {
			return nil, err
		}
		builds = append(builds, s.buildDur.Seconds())
		readies = append(readies, s.readyDur.Seconds())
		totals = append(totals, (s.buildDur + s.readyDur).Seconds())
		if i == setups-1 {
			st = s
		} else if err := s.close(); err != nil {
			return nil, err
		}
	}
	defer st.close()
	heap := heapMB() - heap0
	lpSetup := st.sh.Stats().LPSolves

	total := time.Duration(o.seconds * float64(time.Second))
	warm := total / 10
	if warm > time.Second {
		warm = time.Second
	}
	measured := total
	if o.trace {
		measured = total / 2
	}

	var wr *writer
	streams := func(tag int) []*stream {
		out := make([]*stream, clients)
		for c := range out {
			out[c] = newStream(&w, pool, rngFor(o.seed, tag, c))
		}
		return out
	}
	drive := func(addrs []string, tag int, dur time.Duration, t *tracer) phase {
		t0 := time.Now()
		if w.open {
			rt, wt := openLoop(&w, addrs, dur, newStream(&w, nil, rngFor(o.seed, tag, 0)), wr, t)
			return phase{reads: sumTallies([]*tally{rt}, dur), writes: sumTallies([]*tally{wt}, dur), wall: time.Since(t0)}
		}
		ts := closedLoop(&w, addrs, dur, streams(tag), t, poolAns)
		return phase{reads: sumTallies(ts, dur), writes: &tally{}, wall: time.Since(t0)}
	}
	if w.open {
		wr = &writer{w: &w, rng: rngFor(o.seed, tagWriter, 0)}
		c := newConn(st.front.addr, nil)
		err := wr.fill(c)
		c.close()
		if err != nil {
			return nil, err
		}
	}

	plainAddrs := []string{st.front.addr, st.front.addr}
	// Every phase's answers are checked, warm-ups included; the figures
	// come from the measured phases only.
	phases := []phase{drive(plainAddrs, tagWarmup, warm, nil)}
	plain := drive(plainAddrs, tagMeasure, measured, nil)
	phases = append(phases, plain)

	var traced phase
	var before, after counters
	if o.trace {
		tf, err := startTraced(st, tr)
		if err != nil {
			return nil, err
		}
		defer tf.stop()
		addrs := []string{tf.addr, tf.addr}
		phases = append(phases, drive(addrs, tagWarmup, warm/4, tr))
		tr.reset()
		before = snapshot(st)
		traced = drive(addrs, tagTraced, measured, tr)
		after = snapshot(st)
		phases = append(phases, traced)
	}

	for _, ph := range phases {
		rep.attempted += ph.reads.attempted + ph.writes.attempted
		rep.failed += ph.reads.failed + ph.writes.failed
		rep.failed += orc.verify(ph.reads.checks, w.knnK)
	}
	if w.open {
		qs := make([]vec.Point, finalQueries)
		rng := rngFor(o.seed, tagCheck, 0)
		for i := range qs {
			qs[i] = uniformPoint(rng, w.d)
		}
		a, f := finalChecks(st.front.addr, pts, wr, qs)
		rep.attempted += a
		rep.failed += f
	}

	// End-to-end figures, from the untraced measured phase.
	rep.set("setup_s", "s", sorted(totals).quantile(0.5))
	rep.set("heap_mb", "MB", heap)
	reads := plain.reads
	rep.set("read_qps", "1/s", reads.win.qps)
	rep.set("nn_p50_us", "us", reads.win.p50)
	rep.setQuantile("nn_p99_us", "us", reads.nn, 0.99, 1, 100)
	rep.setQuantile("knn_p50_us", "us", reads.knn, 0.5, 1, 10)
	rep.setQuantile("knn_p99_us", "us", reads.knn, 0.99, 1, 100)
	rep.setQuantile("insert_p50_ms", "ms", plain.writes.ins, 0.5, 1e-3, 10)
	rep.setQuantile("insert_p90_ms", "ms", plain.writes.ins, 0.9, 1e-3, 10)
	rep.setQuantile("delete_p50_ms", "ms", plain.writes.del, 0.5, 1e-3, 10)
	rep.setQuantile("delete_p90_ms", "ms", plain.writes.del, 0.9, 1e-3, 10)

	if o.trace {
		live := pts
		if wr != nil {
			live = append(append([]vec.Point(nil), pts...), pointsOf(wr.live)...)
		}
		qs := make([]vec.Point, 0, replayQueries)
		s := newStream(&w, pool, rngFor(o.seed, tagTraced, 0))
		for len(qs) < cap(qs) {
			qs = append(qs, s.next().p)
		}
		k := w.knnK
		if k == 0 {
			k = 10
		}
		rp := runReplays(st.sh, st.cache, live, qs, k)
		rep.spans = tr.snapshot()
		link(rep.spans)
		layerFigures(rep, st, plain, traced, before, after, rp)
		rep.set("setup.build_s", "s", sorted(builds).quantile(0.5))
		rep.set("setup.ready_s", "s", sorted(readies).quantile(0.5))
		rep.set("lp.solves_setup", "count", float64(lpSetup))
		rep.set("server.rejected", "count", float64(tr.rejected.Load()))
		rep.set("error_rate", "frac", ratio(float64(rep.failed), float64(rep.attempted)))
		rep.spanFile = filepath.Join(o.workDir, "traces", fmt.Sprintf("spans-%s-seed%d.csv.gz", w.name, o.seed))
		if err := writeSpans(rep.spanFile, rep.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// layerFigures derives the per-layer figures of the traced phase from its
// spans, the counter deltas around it, and the replays.
func layerFigures(rep *report, st *stack, plain, traced phase, before, after counters, rp replays) {
	var netSelf, handler, serverSelf samples
	var shardNN, shardKNN, ins, del samples
	var unattributed, rtTotal float64
	for _, r := range groupByRequest(rep.spans) {
		for _, c := range r.children {
			switch c.name {
			case spanShardNN:
				shardNN = append(shardNN, micros(time.Duration(c.dur())))
			case spanShardKNN:
				shardKNN = append(shardKNN, micros(time.Duration(c.dur())))
			case spanShardInsert:
				ins = append(ins, micros(time.Duration(c.dur())))
			case spanShardDelete:
				del = append(del, micros(time.Duration(c.dur())))
			}
		}
		if !r.hasRoot || !r.hasHdl || r.root.name != spanClientNN {
			continue
		}
		rt, hd := r.root.dur(), r.handler.dur()
		var below, client int64
		for _, c := range r.children {
			if c.parent == r.handler.id {
				below += c.dur()
			}
		}
		for _, c := range r.client {
			client += c.dur()
		}
		netSelf = append(netSelf, micros(time.Duration(rt-hd)))
		handler = append(handler, micros(time.Duration(hd)))
		serverSelf = append(serverSelf, micros(time.Duration(hd-below)))
		unattributed += float64(rt - hd - client)
		rtTotal += float64(rt)
	}
	netSelf, handler, serverSelf = sorted(netSelf), sorted(handler), sorted(serverSelf)
	shardNN, shardKNN, ins, del = sorted(shardNN), sorted(shardKNN), sorted(ins), sorted(del)

	rep.set("net.roundtrip_self_us", "us", netSelf.quantile(0.5))
	rep.set("server.handler_us", "us", handler.quantile(0.5))
	rep.set("server.self_us", "us", serverSelf.quantile(0.5))
	rep.set("trace.unattributed_frac", "frac", ratio(unattributed, rtTotal))
	rep.set("trace.overhead_frac", "frac", ratio(traced.reads.nn.quantile(0.5), plain.reads.nn.quantile(0.5))-1)

	dc := after.cache
	hits, misses := dc.Hits-before.cache.Hits, dc.Misses-before.cache.Misses
	writes := float64(len(traced.writes.ins) + len(traced.writes.del))
	rep.set("rescache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("rescache.get_us", "us", rp.cacheGet)
	rep.set("rescache.evictions", "count", float64(dc.Evictions-before.cache.Evictions))
	rep.set("rescache.fill_aborts", "count", float64(dc.FillAborts-before.cache.FillAborts))
	rep.set("rescache.invalidated_per_write", "count", ratio(float64(dc.InvalidatedEntries-before.cache.InvalidatedEntries), writes))

	rep.set("shard.nn_us", "us", shardNN.quantile(0.5))
	rep.set("shard.nn_p99_us", "us", shardNN.quantile(0.99))
	rep.set("shard.nn_solo_us", "us", rp.shardNN)
	rep.set("shard.knn_solo_us", "us", rp.shardKNN)
	routed := float64(after.route.Queries - before.route.Queries)
	rep.set("shard.visited_per_query", "count", ratio(float64(after.route.Visited-before.route.Visited), routed))

	ix, ix0 := after.index, before.index
	rep.set("nncell.candidates_per_query", "count", ratio(float64(ix.Candidates-ix0.Candidates), float64(ix.Queries-ix0.Queries)))
	rep.set("nncell.candidates_us", "us", rp.candidates)
	rep.set("nncell.fallbacks", "count", float64(ix.Fallbacks-ix0.Fallbacks))
	busy := 0.0
	for _, v := range append(append(samples(nil), ins...), del...) {
		busy += v
	}
	rep.set("nncell.write_busy_frac", "frac", ratio(busy, micros(traced.wall)))
	rep.set("nncell.updates_per_point", "count", ratio(float64(ix.Updates-ix0.Updates), writes))
	var stale uint64
	for i := 0; i < st.sh.NumShards(); i++ {
		if hw := st.sh.Shard(i).Stats().StaleCellsHighWater; hw > stale {
			stale = hw
		}
	}
	rep.set("nncell.stale_cells_max", "count", float64(stale))
	rep.set("lp.solves_per_point", "count", ratio(float64(ix.LPSolves-ix0.LPSolves), writes))
	rep.set("lp.pivots_per_solve", "count", ratio(float64(ix.LPPivots), float64(ix.LPSolves)))

	pa, pa0 := after.pager, before.pager
	rep.set("pager.accesses_per_query", "count", ratio(float64(pa.Accesses-pa0.Accesses), routed))
	rep.set("pager.hit_ratio", "ratio", ratio(float64(pa.Hits-pa0.Hits), float64(pa.Accesses-pa0.Accesses)))

	wa, wa0 := after.wal, before.wal
	rep.set("wal.appends_per_write", "count", ratio(float64(wa.Appends-wa0.Appends), writes))
	rep.set("wal.bytes_per_point", "B", ratio(float64(wa.AppendedBytes-wa0.AppendedBytes), writes))
	rep.set("wal.syncs_per_s", "1/s", ratio(float64(wa.Syncs-wa0.Syncs), after.at.Sub(before.at).Seconds()))

	rep.set("scan.nn_us", "us", rp.scanNN)
	rep.set("xtree.datatree_nn_us", "us", rp.dataTreeNN)
	rep.set("loadgen.lag_ms", "ms", plain.reads.lag.quantile(0.99)/1e3)

	// Figures of layers only some workloads exercise; printed, not gated.
	rep.setQuantile("shard.knn_us", "us", shardKNN, 0.5, 1, 10)
	rep.setQuantile("nncell.insert_ms", "ms", ins, 0.5, 1e-3, 10)
	rep.setQuantile("nncell.delete_ms", "ms", del, 0.5, 1e-3, 10)
}
