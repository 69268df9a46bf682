// Package sim provides the virtual-time substrate for the simulated machine.
//
// The entire reproduction runs in virtual time: simulated memory references,
// page faults, compressions and disk transfers advance a Clock by costs taken
// from a machine model, so measurements are deterministic and independent of
// the Go runtime, scheduler and garbage collector. A Clock is the single
// source of "now" for every other module; ages used by the replacement
// policies and busy-until timelines used by the disk model are all expressed
// as Time values from the same clock.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation. It is a distinct type so that virtual instants cannot be mixed
// up with wall-clock instants or with durations.
type Time int64

// Duration is a span of virtual time in nanoseconds. time.Duration is used
// directly so cost models can be written with natural literals such as
// 50*time.Microsecond.
type Duration = time.Duration

// String formats a Time using time.Duration notation (e.g. "1.5ms"), which
// reads naturally for simulation timestamps.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Clock is a monotonically advancing virtual clock.
//
// The zero Clock is ready to use and reads time zero: a private free-running
// counter, exactly as before the discrete-event kernel existed, and
// single-machine runs use it that way. Clock is not safe for concurrent use;
// the simulation is single-threaded by design (the paper's kernel-level
// concurrency, such as the cleaner thread, is modelled with busy-until
// timelines rather than goroutines, so runs are reproducible).
//
// A Clock attached to a Kernel (see Kernel.Attach) keeps the same narrow
// interface, but Advance/AdvanceTo become kernel-mediated waits: the owning
// actor blocks until the shared time line reaches the target instant while
// globally earlier actors run. Callers cannot tell the difference — both
// flavours return the same instants for the same call sequence.
type Clock struct {
	clockState
	kernel *Kernel // nil for a free-running clock
	actor  ActorID
}

// clockState is the clock's replay state: everything a snapshot carries.
type clockState struct {
	now Time
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Attached reports whether the clock is bound to a discrete-event kernel.
func (c *Clock) Attached() bool { return c.kernel != nil }

// Actor reports the kernel actor ID of an attached clock (zero otherwise).
func (c *Clock) Actor() ActorID { return c.actor }

// Advance moves the clock forward by d and returns the new time.
// Advance panics if d is negative: virtual time never runs backward.
//
// The body is the free-running positive step only, so that it inlines into
// the per-reference path (vm.Touch); everything else is advanceSlow.
func (c *Clock) Advance(d Duration) Time {
	if d <= 0 || c.kernel != nil {
		return c.advanceSlow(d)
	}
	c.now += Time(d)
	return c.now
}

// advanceSlow is Advance's out-of-line half: the negative-duration panic,
// the zero-duration no-op and, for the only positive d that reaches it, the
// kernel-mediated wait of an attached clock.
func (c *Clock) advanceSlow(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	if d == 0 {
		return c.now
	}
	return c.kernel.Wait(c.actor, c.now+Time(d))
}

// AdvanceTo moves the clock forward to instant t. It is a no-op if t is in
// the past; this is the common "wait until the device is free" operation.
func (c *Clock) AdvanceTo(t Time) Time {
	if t <= c.now {
		return c.now
	}
	if c.kernel != nil {
		return c.kernel.Wait(c.actor, t)
	}
	c.now = t
	return c.now
}

// Elapsed reports the duration since instant t.
func (c *Clock) Elapsed(t Time) Duration { return c.now.Sub(t) }
