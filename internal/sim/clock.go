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
//
// The clock also keeps the books on where its time went: Charge and ChargeTo
// advance exactly as Advance and AdvanceTo do and add the time that passed to
// one Cause of a fixed ledger. Time moved by a bare Advance is in no entry,
// which is how the per-reference path stays one add: the machine recovers
// reference time as what is left over and checks it against the reference
// count (machine.CheckInvariants).
type Clock struct {
	// now and kernel are all the per-reference Advance reads; they stay
	// adjacent and ahead of the ledger so that path touches one cache line.
	clockState
	kernel *Kernel // nil for a free-running clock
	actor  ActorID
	spent  Ledger
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
		// Invariant: callers advance by a cost from a validated model
		// (CostModel, disk.Params, netdev.Params, fault.Config each reject
		// negative values) or by a later time minus an earlier one, so a
		// negative d is a bug in the caller, not an input.
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

// Cause names what a stretch of virtual time was spent on.
type Cause uint8

// The causes, in the order a breakdown prints them. A reference's own cost has
// no entry: it is the one advance that is not a charge (see Clock).
const (
	CauseFault      Cause = iota // page-fault software overhead
	CauseCompress                // the codec, compressing
	CauseDecompress              // the codec, decompressing
	CauseCopy                    // page and fragment copies
	CauseDevice                  // waiting for a synchronous disk or network transfer, queueing included
	CauseBackoff                 // waiting out a network retry backoff
	CauseDrain                   // waiting for queued asynchronous writes to finish
	CauseIdle                    // time no simulated component spent: a harness moved the clock
	NumCauses
)

var causeNames = [NumCauses]string{"fault", "compress", "decompress", "copy", "device", "backoff", "drain", "idle"}

// String returns the cause's short name.
func (c Cause) String() string { return causeNames[c] }

// Ledger holds the virtual time booked to each cause.
type Ledger [NumCauses]Duration

// Total is the time booked to all causes together.
func (l Ledger) Total() Duration {
	var sum Duration
	for _, d := range l {
		sum += d
	}
	return sum
}

// Sub returns the time booked since the earlier reading base.
func (l Ledger) Sub(base Ledger) Ledger {
	for i := range l {
		l[i] -= base[i]
	}
	return l
}

// Charge advances the clock by d, as Advance does, and books the time that
// passed to cause.
func (c *Clock) Charge(cause Cause, d Duration) Time {
	t0 := c.now
	t := c.Advance(d)
	c.spent[cause] += t.Sub(t0)
	return t
}

// ChargeTo advances the clock to instant t, as AdvanceTo does, and books the
// time that passed — none, if t is not in the future — to cause.
func (c *Clock) ChargeTo(cause Cause, t Time) Time {
	t0 := c.now
	t = c.AdvanceTo(t)
	c.spent[cause] += t.Sub(t0)
	return t
}

// Spent returns the ledger: the time booked to each cause since the clock was
// created. It is not part of the clock's snapshot.
func (c *Clock) Spent() Ledger { return c.spent }
