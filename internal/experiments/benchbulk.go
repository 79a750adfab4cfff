package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
)

// BulkBenchResult is one measured database size of the bulk-maintenance
// benchmark: per-op Insert (each op fully repaired via RepairWait — the
// eager-equivalent cost a caller paid before batching existed) against one
// InsertBatch of the same point stream, reported both at acknowledgement
// (batch returned, affected cells marked stale but still serving correct
// supersets) and at flush (RepairWait drained the repair queue).
type BulkBenchResult struct {
	N         int `json:"n"`
	Dim       int `json:"dim"`
	BatchSize int `json:"batch_size"`
	// BuildNs is the wall time of the streaming bulk Build of the base index.
	BuildNs float64 `json:"build_ns"`
	// Baseline: per-op Insert + RepairWait after every op, over BaselineOps
	// points.
	BaselineOps           int     `json:"baseline_ops"`
	BaselineNsPerInsert   float64 `json:"baseline_ns_per_insert"`
	BaselineInsertsPerSec float64 `json:"baseline_inserts_per_sec"`
	// Ack: InsertBatch has returned; the batch is durable and queryable.
	AckNsPerInsert   float64 `json:"ack_ns_per_insert"`
	AckInsertsPerSec float64 `json:"ack_inserts_per_sec"`
	// Flush: ack plus RepairWait (every affected cell re-approximated).
	FlushNsPerInsert   float64 `json:"flush_ns_per_insert"`
	FlushInsertsPerSec float64 `json:"flush_inserts_per_sec"`
	// SpeedupAck / SpeedupFlush are baseline ns over ack / flush ns.
	SpeedupAck   float64 `json:"speedup_ack"`
	SpeedupFlush float64 `json:"speedup_flush"`
	// StaleAtAck is the affected-cell union deferred by the batch; Repairs
	// is how many of them the flush re-approximated.
	StaleAtAck uint64 `json:"stale_at_ack"`
	Repairs    uint64 `json:"repairs"`
}

// AutoThresholdResult is one side of the constraint-selection trade behind
// Options.AutoThreshold: the Correct selection against the NN-Direction
// selection the threshold switches to at bulk scale. Recall is measured
// against a linear-scan oracle and must be 1.0 for both (Lemma 1: a
// constraint subset only enlarges the approximation, so queries stay
// exact); the trade is pure cost — build time and LP volume on one side,
// candidates per query on the other.
type AutoThresholdResult struct {
	Variant            string  `json:"variant"` // "correct" | "auto-nndirection"
	N                  int     `json:"n"`
	Dim                int     `json:"dim"`
	BuildNsPerPoint    float64 `json:"build_ns_per_point"`
	ConstraintsPerCell float64 `json:"constraints_per_cell"`
	LPSolves           uint64  `json:"lp_solves"`
	Queries            int     `json:"queries"`
	QueryNsPerOp       float64 `json:"query_ns_per_op"`
	CandidatesPerQuery float64 `json:"candidates_per_query"`
	Recall             float64 `json:"recall"`
}

// BulkBenchReport is the machine-readable bulk-maintenance record emitted
// by `cmd/experiments -bench-bulk` (BENCH_bulk.json), tracked across PRs
// alongside BENCH_build/query/dynamic.json.
type BulkBenchReport struct {
	Dim           int                   `json:"dim"`
	BatchSize     int                   `json:"batch_size"`
	Go            string                `json:"go"`
	Results       []BulkBenchResult     `json:"results"`
	AutoThreshold []AutoThresholdResult `json:"auto_threshold"`
}

// BenchBulk measures batched bulk maintenance at each database size: build
// a base index of n points (streaming Build, auto-threshold constraint
// selection, lazy repair), then time the same insert workload two ways —
// per-op Insert with a RepairWait after every op (the fully-repaired
// per-operation cost), and one InsertBatch of batchSize points. It closes
// with the auto-threshold trade measurement at the switch scale.
func BenchBulk(sizes []int, d, batchSize, baselineOps int) (*BulkBenchReport, error) {
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000}
	}
	if d <= 0 {
		d = 8
	}
	if batchSize <= 0 {
		batchSize = 1024
	}
	if baselineOps <= 0 {
		baselineOps = 6
	}
	rep := &BulkBenchReport{Dim: d, BatchSize: batchSize, Go: runtime.Version()}
	for _, n := range sizes {
		res, err := benchBulkSize(n, d, batchSize, baselineOps)
		if err != nil {
			return nil, fmt.Errorf("bench-bulk: n=%d: %w", n, err)
		}
		rep.Results = append(rep.Results, *res)
	}
	// The auto-threshold trade is measured right at the default switch
	// scale, where the Correct selection is still affordable enough to
	// serve as the reference.
	autoN := nncell.DefaultAutoThreshold
	if autoN > sizes[0] {
		autoN = sizes[0]
	}
	at, err := benchAutoThreshold(autoN, d, 200)
	if err != nil {
		return nil, fmt.Errorf("bench-bulk: auto-threshold: %w", err)
	}
	rep.AutoThreshold = at
	return rep, nil
}

func benchBulkSize(n, d, batchSize, baselineOps int) (*BulkBenchResult, error) {
	// Per-op maintenance cost grows steeply with n (each op repairs a large
	// fraction of all cells at high d — tens of seconds per op at n=10^4);
	// its variance is tiny for the same reason, so a few ops give a stable
	// mean and keep the benchmark's runtime bounded.
	if n >= 50_000 {
		if baselineOps = baselineOps / 2; baselineOps < 3 {
			baselineOps = 3
		}
	}
	rng := rand.New(rand.NewSource(int64(2026 + n)))
	want := n + baselineOps + batchSize
	pts := dataset.Deduplicate(dataset.Uniform(rng, want, d))
	if len(pts) < want {
		return nil, fmt.Errorf("only %d unique points, want %d", len(pts), want)
	}
	base := pts[:n]
	perOp := pts[n : n+baselineOps]
	batch := pts[n+baselineOps : want]

	opts := nncell.Options{Algorithm: nncell.Correct, LazyRepair: true}
	buildStart := time.Now()
	ix, err := nncell.Build(base, vec.UnitCube(d), pager.New(pager.Config{CachePages: 256}), opts)
	if err != nil {
		return nil, err
	}
	buildNs := float64(time.Since(buildStart).Nanoseconds())

	// Baseline: per-op Insert, fully repaired before the next op — the cost
	// profile of maintaining the index one point at a time.
	baseStart := time.Now()
	for _, p := range perOp {
		if _, err := ix.Insert(p); err != nil {
			return nil, err
		}
		ix.RepairWait()
	}
	baselineNs := float64(time.Since(baseStart).Nanoseconds()) / float64(baselineOps)

	repairsBefore := ix.Stats().Repairs
	ackStart := time.Now()
	if _, err := ix.InsertBatch(batch); err != nil {
		return nil, err
	}
	ackElapsed := time.Since(ackStart)
	staleAtAck := ix.Stats().StaleCells
	ix.RepairWait()
	flushElapsed := time.Since(ackStart)
	if err := ix.CheckInvariants(); err != nil {
		return nil, err
	}
	if got := ix.Len(); got != want {
		return nil, fmt.Errorf("index holds %d points after batch, want %d", got, want)
	}

	ackNs := float64(ackElapsed.Nanoseconds()) / float64(batchSize)
	flushNs := float64(flushElapsed.Nanoseconds()) / float64(batchSize)
	return &BulkBenchResult{
		N:                     n,
		Dim:                   d,
		BatchSize:             batchSize,
		BuildNs:               buildNs,
		BaselineOps:           baselineOps,
		BaselineNsPerInsert:   baselineNs,
		BaselineInsertsPerSec: 1e9 / baselineNs,
		AckNsPerInsert:        ackNs,
		AckInsertsPerSec:      1e9 / ackNs,
		FlushNsPerInsert:      flushNs,
		FlushInsertsPerSec:    1e9 / flushNs,
		SpeedupAck:            baselineNs / ackNs,
		SpeedupFlush:          baselineNs / flushNs,
		StaleAtAck:            staleAtAck,
		Repairs:               ix.Stats().Repairs - repairsBefore,
	}, nil
}

// benchAutoThreshold builds the same point set twice — Correct selection
// pinned on (AutoThreshold disabled) and the auto switch active (NN-
// Direction at this scale) — and measures build cost, LP volume and query
// cost, with recall checked against a linear-scan oracle.
func benchAutoThreshold(n, d, queries int) ([]AutoThresholdResult, error) {
	rng := rand.New(rand.NewSource(777))
	pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
	n = len(pts)
	qs := make([]vec.Point, queries)
	for i := range qs {
		qs[i] = dataset.Uniform(rng, 1, d)[0]
	}
	oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))

	variants := []struct {
		name string
		opts nncell.Options
	}{
		{"correct", nncell.Options{Algorithm: nncell.Correct, AutoThreshold: -1}},
		{"auto-nndirection", nncell.Options{Algorithm: nncell.Correct}},
	}
	var out []AutoThresholdResult
	for _, v := range variants {
		buildStart := time.Now()
		ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 256}), v.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		buildNs := float64(time.Since(buildStart).Nanoseconds())
		built := ix.Stats()

		qStart := time.Now()
		hits := 0
		for _, q := range qs {
			nb, err := ix.NearestNeighborCell(q)
			if err != nil {
				return nil, fmt.Errorf("%s: query: %w", v.name, err)
			}
			if oi, _ := oracle.Nearest(q); nb.ID == oi {
				hits++
			}
		}
		queryNs := float64(time.Since(qStart).Nanoseconds()) / float64(queries)
		st := ix.Stats()
		out = append(out, AutoThresholdResult{
			Variant:            v.name,
			N:                  n,
			Dim:                d,
			BuildNsPerPoint:    buildNs / float64(n),
			ConstraintsPerCell: float64(built.ConstraintPoints) / float64(n),
			LPSolves:           built.LPSolves,
			Queries:            queries,
			QueryNsPerOp:       queryNs,
			CandidatesPerQuery: float64(st.Candidates-built.Candidates) / float64(queries),
			Recall:             float64(hits) / float64(queries),
		})
	}
	return out, nil
}

// WriteJSON writes the report to path, indented for diff-friendly tracking.
func (r *BulkBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
