package main

import "time"

// processStart is taken while package-level variables initialise, i.e. after
// the imported packages' init functions and before main: the earliest
// instant this program can observe, and the origin of setup_s and of every
// span timestamp.
var processStart = hostNow()

// hostNow is the benchmark's only host-clock read. Every host time the
// ledger reports is a difference of two hostNow values; nothing simulated
// ever sees one, so virtual-time results stay a function of the seed alone.
//
//cclint:ignore walltime -- the benchmark measures the simulator's host cost; no simulated component reads this clock
func hostNow() time.Time { return time.Now() }

// hostNanos is the host time since processStart, the unit spans are kept in.
func hostNanos() int64 { return int64(hostNow().Sub(processStart)) }

// secondsSince reports the host seconds elapsed since t.
func secondsSince(t time.Time) float64 { return hostNow().Sub(t).Seconds() }
