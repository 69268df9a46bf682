// Package wt is a golden fixture for the walltime analyzer.
package wt

import (
	"fmt"
	"os"
	"runtime"
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

// table stands in for an experiment table; what a host value goes on to
// touch does not matter, because it is banned where it is minted.
type table struct{ rows []string }

func (t *table) AddRow(cells ...string) { t.rows = append(t.rows, cells...) }

// BadClock formats the host clock straight into a table row.
func BadClock(t *table) {
	t.AddRow(fmt.Sprintf("%v", time.Now())) // want `wall-clock call time\.Now`
}

// hostStamp returns a host-clock string; the finding is here, at the
// read, not at whichever caller exports it.
func hostStamp() string {
	return fmt.Sprintf("%v", time.Now()) // want `wall-clock call time\.Now`
}

// BadTransitive exports the helper's value and is itself clean: with the
// read banned there is nothing left to follow.
func BadTransitive(t *table) {
	t.AddRow(hostStamp())
}

// BadEnv lets the host environment name a table row.
func BadEnv(t *table) {
	t.AddRow(os.Getenv("CC_HOST")) // want `host-state call os\.Getenv`
}

// report forwards its argument into the table.
func report(t *table, v string) { t.AddRow(v) }

// BadDeepSink reaches AddRow two hops away; the ban is on the read.
func BadDeepSink(t *table) {
	report(t, os.Getenv("CC_SEED")) // want `host-state call os\.Getenv`
}

// badSched sizes work by the host's core count, called and as a value.
func badSched() int {
	cores := runtime.NumCPU                 // want `host-state func runtime\.NumCPU referenced as a value`
	return cores() + runtime.NumGoroutine() // want `host-state call runtime\.NumGoroutine`
}
