// Package wt is a golden fixture for the walltime analyzer.
package wt

import (
	"time"
	. "time"

	wall "time"
)

// bad exercises every banned wall-clock entry point, including through a
// renamed import.
func bad() {
	_ = time.Now()                   // want `wall-clock call time\.Now`
	time.Sleep(time.Second)          // want `wall-clock call time\.Sleep`
	_ = wall.Since(wall.Now())       // want `wall-clock call time\.Since` `wall-clock call time\.Now`
	_ = time.After(time.Millisecond) // want `wall-clock call time\.After`
	t := time.NewTimer(0)            // want `wall-clock call time\.NewTimer`
	tick := time.NewTicker(1)        // want `wall-clock call time\.NewTicker`
	_, _ = t, tick
}

// badValue smuggles the host clock past a call-only check by handing the
// functions around as values.
func badValue() {
	now := time.Now // want `wall-clock func time\.Now referenced as a value`
	_ = now
	stamp(wall.Since) // want `wall-clock func time\.Since referenced as a value`
}

func stamp(func(time.Time) time.Duration) {}

// good uses the time package the way the simulation does: durations as
// units of virtual time, never the host clock.
func good() time.Duration {
	d := 50 * time.Microsecond
	d = d.Round(time.Millisecond)
	return time.Duration(int64(d))
}

// badDot reaches the host clock through a dot import: there is no package
// name to spell, only the function's identity.
func badDot() {
	_ = Now() // want `wall-clock call time\.Now`
}
