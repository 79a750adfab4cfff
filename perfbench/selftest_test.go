package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// tiny shrinks a workload so each run takes about a second.
func tiny(w workload) workload {
	w.n = 600
	if w.pool > 0 {
		w.pool = 256
	}
	if w.open {
		w.writeRate = 10
		w.writeLag = 2
	}
	return w
}

// TestSelf runs every workload at tiny n, untraced and traced, and checks
// that each run answers correctly, reports every metric BENCHMARK.json
// names with its unit, and records spans that nest: every child inside its
// parent with the parent's request id, children never longer than their
// parent, so no self time exceeds its span.
func TestSelf(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		if _, ok := findWorkload(bw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", bw.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(tiny(w), options{seed: 7, seconds: 1, trace: traced, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%t: %d of %d answers failed", w.name, traced, rep.failed, rep.attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res := resultOf(rep)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: result has %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s not measured", w.name, traced, m.Name)
				} else if got.unit != m.Unit || res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.unit, m.Unit)
				}
			}
			if !traced {
				continue
			}
			if len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			if err := checkNesting(rep.spans); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			self, handler := rep.metrics["server.self_us"].v, rep.metrics["server.handler_us"].v
			if self < 0 || self > handler {
				t.Errorf("%s: server self time %.1f µs outside its handler span %.1f µs", w.name, self, handler)
			}
		}
	}
}

// checkNesting verifies that every span lies inside its parent and shares
// the parent's request id, and that no self time is negative. It returns
// the first violation.
func checkNesting(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	childTime := make(map[uint64]int64)
	for _, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.id, spanNames[s.name])
		}
		if s.parent == 0 {
			if s.id != s.rid {
				return fmt.Errorf("root span %d has request id %d", s.id, s.rid)
			}
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has no recorded parent %d", s.id, spanNames[s.name], s.parent)
		}
		if p.rid != s.rid {
			return fmt.Errorf("span %d (%s) request id %d, parent's %d", s.id, spanNames[s.name], s.rid, p.rid)
		}
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %s [%d,%d]",
				s.id, spanNames[s.name], s.start, s.end, spanNames[p.name], p.start, p.end)
		}
		childTime[s.parent] += s.dur()
	}
	for id, ct := range childTime {
		if p := byID[id]; ct > p.dur() {
			return fmt.Errorf("span %d (%s): children take %d ns of its %d ns", id, spanNames[p.name], ct, p.dur())
		}
	}
	return nil
}
