package main

import (
	"math"
	"sort"
	"time"
)

// samples keeps every observation, so percentiles are exact order
// statistics rather than bucket bounds.
type samples []float64

// sorted returns a sorted copy of s.
func sorted(s samples) samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank p-quantile of sorted samples: the
// smallest observation with at least p of the samples at or below it.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many samples lie above the p-quantile's rank.
func (s samples) beyond(p float64) int {
	return len(s) - int(math.Ceil(p*float64(len(s))))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows is how many equal stretches a measured phase is cut into. The
// gated latency and throughput figures are medians over the stretches, so
// a passing disturbance of the shared machine moves one stretch, not the
// figure.
const windows = 10

// windowed are the medians over the stretches of a phase.
type windowed struct {
	p50, qps float64
}

// windowStats computes the per-stretch median latency of the nn answers
// (vs, completed at times at) and the per-stretch read throughput (reads
// completed at readAt), over a phase of length dur, and returns their
// medians. Answers completing after dur count in the last stretch.
func windowStats(vs, at, readAt []float64, dur time.Duration) windowed {
	wlen := dur.Seconds() / windows
	slot := func(t float64) int {
		i := int(t / wlen)
		if i >= windows {
			i = windows - 1
		}
		return i
	}
	var lat, done [windows]samples
	for i, v := range vs {
		lat[slot(at[i])] = append(lat[slot(at[i])], v)
	}
	for _, t := range readAt {
		done[slot(t)] = append(done[slot(t)], t)
	}
	p50s := make(samples, windows)
	qps := make(samples, windows)
	for i := range lat {
		p50s[i] = sorted(lat[i]).quantile(0.5)
		// Reads per second between the stretch's first and last answer.
		if d := sorted(done[i]); len(d) > 1 {
			qps[i] = float64(len(d)-1) / (d[len(d)-1] - d[0])
		}
	}
	return windowed{p50: sorted(p50s).quantile(0.5), qps: sorted(qps).quantile(0.5)}
}
