// Package disk models the backing-store device: a single disk with seek,
// rotational latency and transfer-rate costs, plus an asynchronous write
// queue so background cleaning can overlap with computation the way the
// paper's kernel cleaner thread does.
//
// The default parameters approximate the DEC RZ57, the local disk of the
// paper's DECstation 5000/200: roughly one-gigabyte, 3600-RPM, ~15 ms average
// seek, ~1.6 MB/s sustained media rate. The paper's headline observation —
// that speedups depend on the ratio of compression speed to I/O speed — makes
// these parameters the principal experimental axis, so everything is
// configurable.
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

// Params describes a disk.
type Params struct {
	// SeekAvg is the average seek time paid by a non-sequential access.
	SeekAvg time.Duration

	// RotLatency is the average rotational delay (half a revolution) paid by
	// a non-sequential access.
	RotLatency time.Duration

	// BytesPerSec is the media transfer rate.
	BytesPerSec float64

	// PerOp is fixed per-operation overhead (controller, SCSI command).
	PerOp time.Duration

	// SectorSize is the addressing granularity, in bytes. Transfers are
	// rounded up to whole sectors.
	SectorSize int
}

// RZ57 returns parameters approximating the paper's DEC RZ57 disk: a
// 3600-RPM SCSI drive (16.7 ms/revolution, so 8.3 ms average rotational
// latency) with ~15 ms average seek and ~1.6 MB/s media rate.
func RZ57() Params {
	return Params{
		SeekAvg:     15 * time.Millisecond,
		RotLatency:  16700 * time.Microsecond / 2,
		BytesPerSec: 1.6e6,
		PerOp:       1 * time.Millisecond,
		SectorSize:  512,
	}
}

// Validate reports whether the parameters describe a usable disk.
func (p Params) Validate() error {
	if math.IsNaN(p.BytesPerSec) || math.IsInf(p.BytesPerSec, 0) || p.BytesPerSec <= 0 {
		return fmt.Errorf("disk: BytesPerSec must be positive and finite, got %g", p.BytesPerSec)
	}
	if p.SectorSize <= 0 {
		return fmt.Errorf("disk: SectorSize must be positive, got %d", p.SectorSize)
	}
	// Cap the sector size well below the overflow point of TransferTime's
	// round-up arithmetic (n + SectorSize - 1).
	if p.SectorSize > 1<<30 {
		return fmt.Errorf("disk: SectorSize %d is unreasonably large", p.SectorSize)
	}
	if p.SeekAvg < 0 || p.RotLatency < 0 || p.PerOp < 0 {
		return fmt.Errorf("disk: negative latency parameter")
	}
	return nil
}

// TransferTime reports the media time to move n bytes (rounded up to whole
// sectors), excluding positioning.
func (p Params) TransferTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	sectors := (n + p.SectorSize - 1) / p.SectorSize
	bytes := sectors * p.SectorSize
	return time.Duration(float64(bytes) / p.BytesPerSec * float64(time.Second))
}

// Disk is the device. It keeps a busy-until timeline: synchronous operations
// wait for the device to drain, while asynchronous writes only extend the
// timeline. A last-address cursor implements sequential-access detection —
// an access that starts where the previous one ended skips seek and
// rotational delay, which is how clustered swap writes earn their bandwidth.
type Disk struct {
	diskState
	params Params
	clock  *sim.Clock
	faults *fault.Injector

	bus      *obs.Bus
	waitHist *obs.Histogram // disk.queue_wait — delay behind queued work
	svcHist  *obs.Histogram // disk.service — positioning plus transfer
}

// diskState is the disk's replay state: everything a snapshot carries. The
// fields of Disk proper are configuration, wiring and observability handles
// the restore target is rebuilt with.
type diskState struct {
	busyAt sim.Time // device is busy until this instant
	next   int64    // byte address one past the previous access
	stats  stats.Disk
}

// New creates a disk on the given clock.
func New(p Params, clock *sim.Clock) (*Disk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Disk{params: p, clock: clock, diskState: diskState{next: -1}}, nil
}

// Params reports the disk's parameters.
func (d *Disk) Params() Params { return d.params }

// SetFaultInjector attaches a fault injector; nil (the default) disables
// injection. The injector must live on the same clock as the disk.
func (d *Disk) SetFaultInjector(in *fault.Injector) { d.faults = in }

// SetObserver wires the disk to a machine's event bus; nil disables emission.
func (d *Disk) SetObserver(b *obs.Bus) {
	d.bus = b
	d.waitHist = b.Histogram("disk.queue_wait")
	d.svcHist = b.Histogram("disk.service")
}

// observe records one completed operation: the wait/service histograms plus
// a completion event stamped at the completion instant.
func (d *Disk) observe(class obs.Class, n int, wait, svc time.Duration, done sim.Time) {
	d.waitHist.Observe(wait)
	d.svcHist.Observe(svc)
	if d.bus.Enabled(class) {
		d.bus.Emit(obs.Event{
			T: done, Class: class, Sub: obs.SubDisk,
			Bytes: int64(n), Dur: svc, Aux: int64(wait),
		})
	}
}

// Granularity reports the sector size (the fs.Device interface).
func (d *Disk) Granularity() int { return d.params.SectorSize }

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() stats.Disk { return d.stats }

// BusyUntil reports the instant the device queue drains.
func (d *Disk) BusyUntil() sim.Time { return d.busyAt }

// opTime computes the service time for one operation at byte address addr.
// A non-sequential access pays a seek plus rotational latency. A sequential
// access that reaches an idle device pays rotational latency alone: this is
// a 1993 drive with no read-ahead, so while the host was busy handling the
// previous fault, the target sector rotated past (the reason the paper's
// unmodified system is slow even for perfectly sequential read-only paging).
// Only back-to-back queued sequential operations stream at media rate.
func (d *Disk) opTime(addr int64, n int) (svc time.Duration, seek bool) {
	svc = d.params.PerOp + d.params.TransferTime(n)
	switch {
	case addr != d.next:
		svc += d.params.SeekAvg + d.params.RotLatency
		seek = true
	case d.clock.Now() > d.busyAt:
		// Sequential but the device went idle: missed the rotation window.
		svc += d.params.RotLatency
	}
	return svc, seek
}

// start reports when an operation issued now can begin service.
func (d *Disk) start() sim.Time {
	now := d.clock.Now()
	if d.busyAt > now {
		return d.busyAt
	}
	return now
}

// op performs one operation: extend the busy timeline by its service time
// (plus any injected latency), count and probe it, and — for a synchronous
// operation — advance the caller's virtual clock to the completion instant,
// queueing behind any pending asynchronous writes as a real request would.
// An injected failure is drawn last, so it surfaces only after the
// operation has been charged its full service time: a failed transfer is
// not a free one.
func (d *Disk) op(addr int64, n int, write, sync bool) (sim.Time, error) {
	svc, seek := d.opTime(addr, n)
	svc += d.faults.Latency()
	st := d.start()
	wait := time.Duration(st - d.clock.Now())
	done := st.Add(svc)
	d.busyAt = done
	d.next = addr + int64(n)
	d.stats.BusyTime += svc
	if seek {
		d.stats.Seeks++
	}
	class := obs.ClassDiskRead
	if write {
		class = obs.ClassDiskWrite
		d.stats.Writes++
		d.stats.BytesWritten += uint64(n)
	} else {
		d.stats.Reads++
		d.stats.BytesRead += uint64(n)
	}
	d.observe(class, n, wait, svc, done)
	if sync {
		d.clock.ChargeTo(sim.CauseDevice, done)
	}
	if !write {
		return done, d.faults.DiskRead()
	}
	if err := d.faults.CrashWrite(n, d.params.SectorSize); err != nil {
		return done, err
	}
	return done, d.faults.DiskWrite()
}

// Read performs a synchronous read of n bytes at byte address addr.
func (d *Disk) Read(addr int64, n int) error {
	_, err := d.op(addr, n, false, true)
	return err
}

// Write performs a synchronous write of n bytes at byte address addr.
func (d *Disk) Write(addr int64, n int) error {
	_, err := d.op(addr, n, true, true)
	return err
}

// WriteAsync queues a write without blocking the caller: the device busy
// timeline is extended but the clock is not advanced. This models the
// cleaner thread writing out dirty compressed pages in the background. The
// returned instant is when the write completes. A failure of the queued
// write is reported immediately (the model has no completion interrupt),
// with the busy timeline still charged.
func (d *Disk) WriteAsync(addr int64, n int) (sim.Time, error) {
	return d.op(addr, n, true, false)
}

// Drain advances the clock until all queued operations complete. Tests and
// end-of-run accounting use it so asynchronous work is not silently free.
func (d *Disk) Drain() {
	d.clock.ChargeTo(sim.CauseDrain, d.busyAt)
}
