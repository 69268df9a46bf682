package disk

import (
	"fmt"
	"math"
	"time"

	"compcache/internal/fault"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/stats"
)

// Queue is the mechanism every backing device shares: a busy-until timeline
// that synchronous operations wait out and asynchronous writes only extend,
// the traffic counters, the probes, the synchronous charge and the fault
// draws. A device embeds it and keeps only its cost model: it prices an
// operation, asks Begin when service starts, and hands the completion
// instant to Complete.
type Queue struct {
	Timeline
	clock   *sim.Clock
	unit    int             // transfer unit: a disk sector, a network packet
	sub     obs.Subsystem   // tag of the events the queue emits
	section string          // snapshot section
	faults  *fault.Injector // nil injects nothing

	bus               *obs.Bus
	waitName, svcName string         // histogram names
	waitHist, svcHist *obs.Histogram // delay behind queued work; service time
}

// Timeline is a queue's replay state: everything a snapshot carries. The
// other fields of Queue are configuration, wiring and observability handles
// the restore target is rebuilt with.
type Timeline struct {
	busyAt sim.Time // device is busy until this instant
	next   int64    // byte address one past the previous access
	stats  stats.Disk
}

// NewQueue makes an idle queue on clock for a device whose transfers move
// whole units of unit bytes. sub tags its events, section names its
// snapshot section, and wait and svc name its queue-wait and service-time
// histograms.
func NewQueue(clock *sim.Clock, unit int, sub obs.Subsystem, section, wait, svc string) Queue {
	return Queue{Timeline: Timeline{next: -1}, clock: clock, unit: unit, sub: sub,
		section: section, waitName: wait, svcName: svc}
}

// CheckLink reports whether a device's transfer rate, transfer unit and
// fixed latencies are usable. dev prefixes the error; unitName names the
// unit's Params field.
func CheckLink(dev, unitName string, bytesPerSec float64, unit int, latencies ...time.Duration) error {
	if math.IsNaN(bytesPerSec) || math.IsInf(bytesPerSec, 0) || bytesPerSec <= 0 {
		return fmt.Errorf("%s: BytesPerSec must be positive and finite, got %g", dev, bytesPerSec)
	}
	if unit <= 0 {
		return fmt.Errorf("%s: %s must be positive, got %d", dev, unitName, unit)
	}
	// Cap the unit well below the overflow point of TransferTime's round-up
	// arithmetic (n + unit - 1).
	if unit > 1<<30 {
		return fmt.Errorf("%s: %s %d is unreasonably large", dev, unitName, unit)
	}
	for _, l := range latencies {
		if l < 0 {
			return fmt.Errorf("%s: negative latency parameter", dev)
		}
	}
	return nil
}

// TransferTime reports the time to move n bytes at bytesPerSec, rounded up
// to whole units of unit bytes.
func TransferTime(n, unit int, bytesPerSec float64) time.Duration {
	if n <= 0 {
		return 0
	}
	units := (n + unit - 1) / unit
	return time.Duration(float64(units*unit) / bytesPerSec * float64(time.Second))
}

// SetFaultInjector attaches a fault injector; nil (the default) disables
// injection. The injector must live on the same clock as the device.
func (q *Queue) SetFaultInjector(in *fault.Injector) { q.faults = in }

// SetObserver wires the device to a machine's event bus; nil disables
// emission.
func (q *Queue) SetObserver(b *obs.Bus) {
	q.bus = b
	q.waitHist = b.Histogram(q.waitName)
	q.svcHist = b.Histogram(q.svcName)
}

// Granularity reports the transfer unit (the fs.Device interface).
func (q *Queue) Granularity() int { return q.unit }

// Stats returns a snapshot of the device counters.
func (q *Queue) Stats() stats.Disk { return q.stats }

// BusyUntil reports the instant the device queue drains.
func (q *Queue) BusyUntil() sim.Time { return q.busyAt }

// Drain advances the clock until all queued operations complete. Tests and
// end-of-run accounting use it so asynchronous work is not silently free.
func (q *Queue) Drain() {
	q.clock.ChargeTo(sim.CauseDrain, q.busyAt)
}

// Count books one transfer of n bytes in the traffic counters.
func (q *Queue) Count(n int, write bool) {
	if write {
		q.stats.Writes++
		q.stats.BytesWritten += uint64(n)
	} else {
		q.stats.Reads++
		q.stats.BytesRead += uint64(n)
	}
}

// Begin adds any injected latency to an operation's service time svc and
// reports, with the total, when the operation issued now starts service:
// once the work queued ahead of it drains.
func (q *Queue) Begin(svc time.Duration) (sim.Time, time.Duration) {
	svc += q.faults.Latency()
	if now := q.clock.Now(); q.busyAt <= now {
		return now, svc
	}
	return q.busyAt, svc
}

// Complete books an operation on n bytes at addr that Begin started at st
// and that finishes at done: it extends the timeline, probes, and — for a
// synchronous operation — advances the caller's virtual clock to done. An
// injected failure is drawn last, so it surfaces only after the operation
// has been charged its full service time: a failed transfer is not a free
// one. A write is a crash point, torn at the queue's unit.
func (q *Queue) Complete(addr int64, n int, st, done sim.Time, write, sync bool) error {
	wait, svc := time.Duration(st-q.clock.Now()), time.Duration(done-st)
	q.busyAt = done
	q.next = addr + int64(n)
	q.stats.BusyTime += svc
	q.waitHist.Observe(wait)
	q.svcHist.Observe(svc)
	class := obs.ClassDiskRead
	if write {
		class = obs.ClassDiskWrite
	}
	if q.bus.Enabled(class) {
		q.bus.Emit(obs.Event{
			T: done, Class: class, Sub: q.sub,
			Bytes: int64(n), Dur: svc, Aux: int64(wait),
		})
	}
	if sync {
		q.clock.ChargeTo(sim.CauseDevice, done)
	}
	if !write {
		return q.faults.DiskRead()
	}
	if err := q.faults.CrashWrite(n, q.unit); err != nil {
		return err
	}
	return q.faults.DiskWrite()
}

// Backoff holds the device back by wait before it reissues a failed
// transfer of n bytes (retry number retry) and counts the retry. A
// synchronous caller's clock pays the wait; a queued transfer's wait elapses
// on the timeline, delaying everything queued behind it, not the caller.
func (q *Queue) Backoff(n, retry int, wait time.Duration, sync bool) {
	q.stats.Retries++
	if q.bus.Enabled(obs.ClassRetry) {
		q.bus.Emit(obs.Event{
			T: q.clock.Now(), Class: obs.ClassRetry, Sub: q.sub,
			Bytes: int64(n), Dur: wait, Aux: int64(retry),
		})
	}
	if sync {
		q.clock.Charge(sim.CauseBackoff, wait)
	} else {
		q.busyAt = q.busyAt.Add(wait)
	}
}
