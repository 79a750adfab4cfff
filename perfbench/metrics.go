package main

import "strconv"

// metricDef names a reported figure and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the serving stack sees; every
// workload reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"read_qps", "1/s"},
	{"nn_p50_us", "us"},
}

// perLayer are the figures of single layers; every workload reports all of
// them from its traced run. A layer the workload does not exercise reports
// a zero count.
var perLayer = []metricDef{
	{"net.roundtrip_self_us", "us"},
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.rejected", "count"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.get_us", "us"},
	{"rescache.evictions", "count"},
	{"rescache.fill_aborts", "count"},
	{"rescache.invalidated_per_write", "count"},
	{"shard.nn_us", "us"},
	{"shard.nn_p99_us", "us"},
	{"shard.nn_solo_us", "us"},
	{"shard.knn_solo_us", "us"},
	{"shard.visited_per_query", "count"},
	{"nncell.candidates_per_query", "count"},
	{"nncell.candidates_us", "us"},
	{"nncell.fallbacks", "count"},
	{"nncell.write_busy_frac", "frac"},
	{"nncell.updates_per_point", "count"},
	{"nncell.stale_cells_max", "count"},
	{"lp.solves_per_point", "count"},
	{"lp.pivots_per_solve", "count"},
	{"lp.solves_setup", "count"},
	{"pager.accesses_per_query", "count"},
	{"pager.hit_ratio", "ratio"},
	{"wal.appends_per_write", "count"},
	{"wal.bytes_per_point", "B"},
	{"wal.syncs_per_s", "1/s"},
	{"scan.nn_us", "us"},
	{"xtree.datatree_nn_us", "us"},
	{"setup.build_s", "s"},
	{"setup.ready_s", "s"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
	{"error_rate", "frac"},
}

// value is one measured figure. n is the sample count behind a percentile
// (0 for figures that are not percentiles).
type value struct {
	v    float64
	unit string
	n    int
	note string
}

// report is everything one run measured.
type report struct {
	workload          string
	trace             bool
	metrics           map[string]value
	attempted, failed int
	spans             []span
	spanFile          string
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = value{v: v, unit: unit}
}

// setQuantile records the p-quantile of s and warns when fewer than min
// samples lie beyond it.
func (r *report) setQuantile(name, unit string, s samples, p, scale float64, min int) {
	if len(s) == 0 {
		return
	}
	v := value{v: s.quantile(p) * scale, unit: unit, n: len(s)}
	if b := s.beyond(p); b < min {
		v.note = "only " + strconv.Itoa(b) + " samples beyond this percentile"
	}
	r.metrics[name] = v
}
