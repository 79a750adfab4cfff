package main

import (
	"syscall"
	"time"
)

// waitUntil returns at t. The runtime's timers wake up to a millisecond
// late on an idle machine, which would dominate the latency of an
// open-loop request timed from its due time, so the wait sleeps in the
// kernel until just before t and spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

const spinMargin = 200 * time.Microsecond
