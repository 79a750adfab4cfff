// Command perfbench is the repository's end-to-end benchmark. For one
// workload it builds a grid-routed sharded NN-cell index from seeded
// uniform data, serves it with the real HTTP server on a loopback port,
// drives it from two keep-alive connections, checks the answers against a
// flat scan, and prints one JSON result line last.
//
//	go run . --workload nn-d4-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end figures; with --trace 1 it
// holds the per-layer figures of a traced run, whose spans are written
// under --workdir. --workload all runs every workload in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated data and query streams")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer figures")
		workDir = flag.String("workdir", ".bench_build/perfbench", "directory for WAL files and span files")
	)
	flag.Parse()
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir}
	for _, w := range ws {
		rep, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printReport(rep)
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gated returns the figures the result line carries: the end-to-end ones
// of an untraced run, or the per-layer ones of a traced run.
func gated(rep *report) []metricDef {
	if rep.trace {
		return perLayer
	}
	return endToEnd
}

// resultOf builds the result line of a run.
func resultOf(rep *report) result {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range gated(rep) {
		res.Metrics[m.name] = jsonMetric{Value: rep.metrics[m.name].v, Unit: m.unit}
	}
	return res
}

// printReport prints every figure the run measured, one per line, then the
// result line.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s (trace=%t): %d answers, %d failed\n", rep.workload, rep.trace, rep.attempted, rep.failed)
	for _, n := range names {
		v := rep.metrics[n]
		line := fmt.Sprintf("%-32s %14.6g %s", n, v.v, v.unit)
		if v.n > 0 {
			line += fmt.Sprintf("  (n=%d)", v.n)
		}
		if v.note != "" {
			line += "  " + v.note
		}
		fmt.Println(line)
	}
	if rep.spanFile != "" {
		fmt.Printf("# spans: %s (%d)\n", rep.spanFile, len(rep.spans))
	}
	b, err := json.Marshal(resultOf(rep))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
