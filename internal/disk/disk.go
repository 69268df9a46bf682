// Package disk models the backing-store device: a single disk with seek,
// rotational latency and transfer-rate costs, on a device Queue whose
// asynchronous writes let background cleaning overlap with computation the
// way the paper's kernel cleaner thread does. The Queue — busy timeline,
// counters, probes, synchronous charge, fault draws and snapshot walk — is
// the one every backing device embeds; netdev's page-server link is the
// other.
//
// The default parameters approximate the DEC RZ57, the local disk of the
// paper's DECstation 5000/200: roughly one-gigabyte, 3600-RPM, ~15 ms average
// seek, ~1.6 MB/s sustained media rate. The paper's headline observation —
// that speedups depend on the ratio of compression speed to I/O speed — makes
// these parameters the principal experimental axis, so everything is
// configurable.
package disk

import (
	"time"

	"compcache/internal/obs"
	"compcache/internal/sim"
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
	return CheckLink("disk", "SectorSize", p.BytesPerSec, p.SectorSize, p.SeekAvg, p.RotLatency, p.PerOp)
}

// TransferTime reports the media time to move n bytes (rounded up to whole
// sectors), excluding positioning.
func (p Params) TransferTime(n int) time.Duration {
	return TransferTime(n, p.SectorSize, p.BytesPerSec)
}

// Disk is the device: a Queue priced by seek, rotation and transfer. A
// last-address cursor implements sequential-access detection — an access
// that starts where the previous one ended skips seek and rotational delay,
// which is how clustered swap writes earn their bandwidth.
type Disk struct {
	Queue
	params Params
}

// New creates a disk on the given clock.
func New(p Params, clock *sim.Clock) (*Disk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := NewQueue(clock, p.SectorSize, obs.SubDisk, "disk", "disk.queue_wait", "disk.service")
	return &Disk{Queue: q, params: p}, nil
}

// Params reports the disk's parameters.
func (d *Disk) Params() Params { return d.params }

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

// op prices one operation and books it on the queue, which extends the
// timeline by its service time (plus any injected latency) and — for a
// synchronous operation — advances the caller's virtual clock to the
// completion instant, queueing behind any pending asynchronous writes as a
// real request would.
func (d *Disk) op(addr int64, n int, write, sync bool) (sim.Time, error) {
	svc, seek := d.opTime(addr, n)
	st, svc := d.Begin(svc)
	if seek {
		d.stats.Seeks++
	}
	d.Count(n, write)
	done := st.Add(svc)
	return done, d.Complete(addr, n, st, done, write, sync)
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
