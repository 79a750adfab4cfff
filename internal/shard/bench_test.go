package shard

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// syntheticPoint derives a unique in-bounds point from a counter via a
// 64-bit mix, so concurrent benchmark goroutines can generate collision-free
// insert streams without coordination beyond one atomic increment.
func syntheticPoint(n uint64, d int) vec.Point {
	p := make(vec.Point, d)
	x := n*0x9E3779B97F4A7C15 + 0x1234567
	for j := range p {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		p[j] = float64(x>>11) / float64(1<<53)
		x += 0x9E3779B97F4A7C15
	}
	return p
}

// BenchmarkDynamicInsert measures the concurrent insert/delete steady state
// at several partition widths: every iteration inserts a fresh unique point
// and deletes it again, so the index size stays at the base N while the
// write lock pattern (one global lock vs one lock per shard) dominates.
func BenchmarkDynamicInsert(b *testing.B) {
	const d = 8
	for _, S := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", S), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			pts := dataset.Deduplicate(dataset.Uniform(rng, 512, d))
			s, err := Build(pts, vec.UnitCube(d), Options{
				Shards: S,
				Pager:  pager.Config{CachePages: 64},
				Index:  nncell.Options{Algorithm: nncell.Sphere},
			})
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					p := syntheticPoint(ctr.Add(1), d)
					gid, err := s.Insert(p)
					if err != nil {
						b.Error(err)
						return
					}
					if err := s.Delete(gid); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardNearestParallel measures exact read throughput on the
// serving shape of the nn-d8-unique benchmark workload, without HTTP: n=10⁴
// uniform points at d=8, S=4 grid routing, NN-Direction cells and a 64-page
// pager per shard. Each worker runs its own stream of fresh uniform queries;
// every 10th is a k=10 query, the rest single NN. Run it under -cpu 1,2 to
// see how reads scale with workers (every query takes its shards' pager
// locks):
//
//	go test -run '^$' -bench ShardNearestParallel -cpu 1,2 ./internal/shard/
func BenchmarkShardNearestParallel(b *testing.B) {
	const n, d = 10000, 8
	rng := rand.New(rand.NewSource(1))
	s, err := Build(dataset.Uniform(rng, n, d), vec.UnitCube(d), Options{
		Shards: 4,
		Route:  RouteGrid,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.NNDirection},
	})
	if err != nil {
		b.Fatal(err)
	}
	var seeds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(100 + seeds.Add(1)))
		q := make(vec.Point, d)
		var out []nncell.Neighbor
		for i := 0; pb.Next(); i++ {
			for j := range q {
				q[j] = rng.Float64()
			}
			if i%10 == 9 {
				out, err = s.KNearestAppend(out[:0], q, 10)
			} else {
				_, err = s.NearestNeighbor(q)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
