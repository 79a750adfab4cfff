package experiments

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/vec"
)

// QueryBenchResult is one measured NN-query configuration of the query
// benchmark (BENCH_query.json): latency and allocation profile of the
// QueryCtx cell engine, plus the work counters that explain them
// (candidates inspected and index pages touched per query).
type QueryBenchResult struct {
	Algorithm string `json:"algorithm"`
	Dim       int    `json:"dim"`
	N         int    `json:"n"`

	// Engine measurements (the pooled-QueryCtx flat-layout traversal).
	NsPerOp     float64 `json:"ns_per_op"`
	QPS         float64 `json:"qps"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// Per-query work, averaged over one instrumented pass.
	CandidatesPerQuery   float64 `json:"candidates_per_query"`
	NodeAccessesPerQuery float64 `json:"node_accesses_per_query"`
	Fallbacks            uint64  `json:"fallbacks"`
}

// QueryScaleResult is one large-n measurement of the scale pass: a single
// dimension in the auto-threshold regime, uncached vs behind the exact
// result cache on a repeating (hot) query pool.
type QueryScaleResult struct {
	Algorithm string `json:"algorithm"`
	Dim       int    `json:"dim"`
	N         int    `json:"n"`

	NsPerOp float64 `json:"ns_per_op"`
	QPS     float64 `json:"qps"`

	// The identical query stream through rescache.Front; after the first
	// pool pass every query is a hit, so this approximates the hot-spot
	// serving regime the cache targets.
	CachedNsPerOp float64 `json:"cached_ns_per_op"`
	CachedQPS     float64 `json:"cached_qps"`
	CacheSpeedup  float64 `json:"cache_speedup"` // NsPerOp / CachedNsPerOp
	HitRate       float64 `json:"hit_rate"`
}

// QueryBenchReport is the machine-readable query-performance record emitted
// by `cmd/experiments -bench-query` so the QPS trajectory is tracked across
// PRs, parallel to BENCH_build.json for construction.
type QueryBenchReport struct {
	N       int                `json:"n"`
	Dims    []int              `json:"dims"`
	Queries int                `json:"queries"`
	Go      string             `json:"go"`
	Results []QueryBenchResult `json:"results"`

	// Scale holds the optional -bench-scale-n pass (n typically 1e5).
	ScaleN int                `json:"scale_n,omitempty"`
	Scale  []QueryScaleResult `json:"scale,omitempty"`
}

// BenchQuery measures the cell engine (NearestNeighborCell) for every
// constraint-selection algorithm at each dimension via testing.Benchmark,
// over a shared in-space query stream.
func BenchQuery(n int, dims []int) (*QueryBenchReport, error) {
	if n <= 0 {
		n = 250
	}
	if len(dims) == 0 {
		dims = []int{2, 4, 8, 16}
	}
	const numQueries = 128
	rep := &QueryBenchReport{N: n, Dims: dims, Queries: numQueries, Go: runtime.Version()}
	for _, alg := range nncell.Algorithms() {
		for _, d := range dims {
			rng := rand.New(rand.NewSource(int64(100*d + int(alg))))
			pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
			pg := pager.New(pager.Config{CachePages: 64})
			ix, err := nncell.Build(pts, vec.UnitCube(d), pg, nncell.Options{Algorithm: alg})
			if err != nil {
				return nil, err
			}
			qrng := rand.New(rand.NewSource(int64(99)))
			qs := make([]vec.Point, numQueries)
			for i := range qs {
				q := make(vec.Point, d)
				for j := range q {
					q[j] = qrng.Float64()
				}
				qs[i] = q
			}

			// One instrumented pass measures the per-query work counters.
			statsBefore := ix.Stats()
			pagesBefore := pg.Stats().Accesses
			for _, q := range qs {
				if _, err := ix.NearestNeighborCell(q); err != nil {
					return nil, err
				}
			}
			statsAfter := ix.Stats()
			pagesAfter := pg.Stats().Accesses

			var benchErr error
			ctx := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ix.NearestNeighborCell(qs[i%len(qs)]); err != nil {
						benchErr = err
						b.Fatal(err)
					}
				}
			})
			if benchErr != nil {
				return nil, benchErr
			}

			ctxNs := float64(ctx.NsPerOp())
			rep.Results = append(rep.Results, QueryBenchResult{
				Algorithm:            alg.String(),
				Dim:                  d,
				N:                    n,
				NsPerOp:              ctxNs,
				QPS:                  1e9 / ctxNs,
				AllocsPerOp:          ctx.AllocsPerOp(),
				BytesPerOp:           ctx.AllocedBytesPerOp(),
				CandidatesPerQuery:   float64(statsAfter.Candidates-statsBefore.Candidates) / numQueries,
				NodeAccessesPerQuery: float64(pagesAfter-pagesBefore) / numQueries,
				Fallbacks:            statsAfter.Fallbacks - statsBefore.Fallbacks,
			})
		}
	}
	return rep, nil
}

// BenchQueryScale measures NearestNeighbor at large n (default 1e5) at
// d=8, uncached and behind the exact result cache. The algorithm set is
// restricted to the two that stay tractable at this scale: Correct in its
// auto-threshold (effective NN-Direction) regime, and NNDirection itself.
// Results are meant to be attached to QueryBenchReport.Scale.
func BenchQueryScale(n, d int) ([]QueryScaleResult, error) {
	if n <= 0 {
		n = 100000
	}
	if d <= 0 {
		d = 8
	}
	const numQueries = 128
	variants := []struct {
		name string
		opts nncell.Options
	}{
		{"auto-nndirection", nncell.Options{Algorithm: nncell.Correct}},
		{"nn-direction", nncell.Options{Algorithm: nncell.NNDirection}},
	}
	var out []QueryScaleResult
	for _, v := range variants {
		rng := rand.New(rand.NewSource(int64(1000 + d)))
		pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
		ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 256}), v.opts)
		if err != nil {
			return nil, err
		}
		qrng := rand.New(rand.NewSource(99))
		qs := make([]vec.Point, numQueries)
		for i := range qs {
			q := make(vec.Point, d)
			for j := range q {
				q[j] = qrng.Float64()
			}
			qs[i] = q
		}

		var benchErr error
		raw := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		front := rescache.NewFront(ix, 1<<12)
		cached := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := front.NearestNeighbor(qs[i%len(qs)]); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		st := front.Cache().Stats()
		rawNs := float64(raw.NsPerOp())
		cachedNs := float64(cached.NsPerOp())
		res := QueryScaleResult{
			Algorithm:     v.name,
			Dim:           d,
			N:             n,
			NsPerOp:       rawNs,
			QPS:           1e9 / rawNs,
			CachedNsPerOp: cachedNs,
			CachedQPS:     1e9 / cachedNs,
		}
		if cachedNs > 0 {
			res.CacheSpeedup = rawNs / cachedNs
		}
		if total := st.Hits + st.Misses; total > 0 {
			res.HitRate = float64(st.Hits) / float64(total)
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteJSON writes the report to path, indented for diff-friendly tracking.
func (r *QueryBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
