package nncell

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/vec"
)

// Query benchmarks of the zero-allocation engine: n = 250 points (the
// paper-scale configuration tracked in BENCH_query.json), every
// constraint-selection algorithm, the dimension sweep of the paper's
// evaluation. Run with -benchmem; the warm paths must report 0 allocs/op.

const benchQueryN = 250

func benchIndex(b *testing.B, alg Algorithm, d int) (*Index, []vec.Point) {
	b.Helper()
	pts := uniquePoints(b, dataset.NameUniform, int64(100*d+int(alg)), benchQueryN, d)
	ix := mustBuild(b, pts, Options{Algorithm: alg})
	rng := rand.New(rand.NewSource(99))
	qs := make([]vec.Point, 128)
	for i := range qs {
		qs[i] = randQuery(rng, d)
	}
	return ix, qs
}

func forBenchConfigs(b *testing.B, f func(b *testing.B, alg Algorithm, d int)) {
	for _, alg := range Algorithms() {
		for _, d := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", alg, d), func(b *testing.B) {
				f(b, alg, d)
			})
		}
	}
}

func BenchmarkQueryNearest(b *testing.B) {
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkQueryCandidates(b *testing.B) {
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
		ids := make([]int, 0, benchQueryN)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids = ix.CandidatesAppend(ids[:0], qs[i%len(qs)])
		}
	})
}

func BenchmarkQueryKNearest(b *testing.B) {
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.KNearest(qs[i%len(qs)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkQueryBatch(b *testing.B) {
	ix, qs := benchIndex(b, NNDirection, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.NearestNeighborBatch(qs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCrossover times the two exact NN engines on one index of
// the serve shape's per-shard size: n uniform points (a shard of a
// 4-way grid-sharded index of 4n points), NN-Direction cells, a 64-page
// pager and fresh uniform queries. engine=cell is NearestNeighborCell,
// engine=tree is NearestNeighbor; candidates/op is the Stats.Candidates
// refinement work per query. EXPERIMENTS.md §"Exact engine crossover"
// tabulates it.
func BenchmarkEngineCrossover(b *testing.B) {
	for _, n := range []int{2500, 5000} {
		for _, d := range []int{2, 4, 6, 8} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				pts := uniquePoints(b, dataset.NameUniform, int64(n+d), n, d)
				ix, err := Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 64}),
					Options{Algorithm: NNDirection})
				if err != nil {
					b.Fatal(err)
				}
				qs := dataset.Uniform(rand.New(rand.NewSource(int64(d))), 1<<14, d)
				for _, e := range []struct {
					name string
					nn   func(vec.Point) (Neighbor, error)
				}{{"cell", ix.NearestNeighborCell}, {"tree", ix.NearestNeighbor}} {
					b.Run("engine="+e.name, func(b *testing.B) {
						before := ix.Stats().Candidates
						for i := 0; i < b.N; i++ {
							if _, err := e.nn(qs[i%len(qs)]); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(ix.Stats().Candidates-before)/float64(b.N), "candidates/op")
					})
				}
			})
		}
	}
}
