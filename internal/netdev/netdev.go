// Package netdev models paging over a network to a remote page server — the
// paper's target environment: "mobile computers may communicate over slower
// wireless networks and run either diskless or with small, slower local
// disks" (§1). It implements the same device interface the file system uses
// for a disk, so a whole machine can be built diskless.
//
// Cost model: each operation pays one round-trip latency plus transfer time
// at the link bandwidth, with an asynchronous send queue like the disk's
// write queue. There is no seek and no rotational position: a network makes
// every access "random", which is exactly why the paper expects compression
// to matter more there ("slower backing stores, such as wireless networks",
// §6).
package netdev

import (
	"fmt"
	"math"
	"time"

	"compcache/internal/fault"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/stats"
)

// Params describes a network path to a page server.
type Params struct {
	// RTT is the request/response round-trip latency charged per operation.
	RTT time.Duration

	// BytesPerSec is the link bandwidth.
	BytesPerSec float64

	// PerOp is fixed protocol processing overhead per operation.
	PerOp time.Duration

	// PacketBytes is the transfer granularity (payload per packet);
	// transfers round up to whole packets.
	PacketBytes int

	// Retries is how many times a failed transfer is reissued before the
	// failure is reported to the caller. Networks drop packets where disks
	// do not, so the page-server protocol retries; transfers only fail under
	// fault injection, so the retry knobs change nothing in a fault-free run.
	Retries int

	// RetryBase is the backoff before the first retry; each subsequent
	// retry doubles it, capped at RetryMax. Backoff elapses in virtual time.
	RetryBase time.Duration

	// RetryMax caps the exponential backoff. Zero means uncapped.
	RetryMax time.Duration
}

// Ethernet10 returns parameters for the 10-Mbps Ethernet of the paper's §3
// footnote ("it is more efficient to page over a 10-Mbps Ethernet to memory
// on a file server than to page to a local disk").
func Ethernet10() Params {
	return Params{
		RTT:         2 * time.Millisecond,
		BytesPerSec: 1.25e6,
		PerOp:       500 * time.Microsecond,
		PacketBytes: 1024,
		Retries:     3,
		RetryBase:   2 * time.Millisecond,
		RetryMax:    20 * time.Millisecond,
	}
}

// Wireless2 returns parameters for a ~2-Mbps early-90s wireless LAN
// (WaveLAN-class), the mobile scenario of §1.
func Wireless2() Params {
	return Params{
		RTT:         15 * time.Millisecond,
		BytesPerSec: 0.25e6,
		PerOp:       1 * time.Millisecond,
		PacketBytes: 1024,
		Retries:     4,
		RetryBase:   10 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
	}
}

// Validate reports whether the parameters describe a usable link.
func (p Params) Validate() error {
	if math.IsNaN(p.BytesPerSec) || math.IsInf(p.BytesPerSec, 0) || p.BytesPerSec <= 0 {
		return fmt.Errorf("netdev: BytesPerSec must be positive and finite, got %g", p.BytesPerSec)
	}
	if p.PacketBytes <= 0 {
		return fmt.Errorf("netdev: PacketBytes must be positive, got %d", p.PacketBytes)
	}
	// Cap the packet size well below the overflow point of TransferTime's
	// round-up arithmetic (n + PacketBytes - 1).
	if p.PacketBytes > 1<<30 {
		return fmt.Errorf("netdev: PacketBytes %d is unreasonably large", p.PacketBytes)
	}
	if p.RTT < 0 || p.PerOp < 0 {
		return fmt.Errorf("netdev: negative latency parameter")
	}
	if p.Retries < 0 {
		return fmt.Errorf("netdev: Retries must be non-negative, got %d", p.Retries)
	}
	if p.RetryBase < 0 || p.RetryMax < 0 {
		return fmt.Errorf("netdev: negative retry backoff parameter")
	}
	if p.RetryMax > 0 && p.RetryBase > p.RetryMax {
		return fmt.Errorf("netdev: RetryBase %v exceeds RetryMax %v", p.RetryBase, p.RetryMax)
	}
	return nil
}

// TransferTime reports the link time to move n bytes (whole packets).
func (p Params) TransferTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	packets := (n + p.PacketBytes - 1) / p.PacketBytes
	return time.Duration(float64(packets*p.PacketBytes) / p.BytesPerSec * float64(time.Second))
}

// Net is a remote page server reached over the modelled link. It satisfies
// the file system's Device interface; the remote server's memory plays the
// platter's role (contents are tracked by the fs layer, as with a disk).
type Net struct {
	params Params
	clock  *sim.Clock
	busyAt sim.Time
	st     stats.Disk
	faults *fault.Injector // nil injects nothing
	remote RemoteEndpoint  // nil models an infinitely fast server

	bus      *obs.Bus
	waitHist *obs.Histogram // net.queue_wait — delay behind the send queue
	svcHist  *obs.Histogram // net.service — RTT plus transfer
}

// New creates a network device on the given clock.
func New(p Params, clock *sim.Clock) (*Net, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Net{params: p, clock: clock}, nil
}

// Params reports the link parameters.
func (n *Net) Params() Params { return n.params }

// SetFaultInjector attaches a fault injector; nil (the default) disables
// injection. The injector must live on the same clock as the device.
func (n *Net) SetFaultInjector(in *fault.Injector) { n.faults = in }

// SetObserver wires the device to a machine's event bus; nil disables
// emission.
func (n *Net) SetObserver(b *obs.Bus) {
	n.bus = b
	n.waitHist = b.Histogram("net.queue_wait")
	n.svcHist = b.Histogram("net.service")
}

// RemoteEndpoint is the far side of the link: a shared page server whose own
// queueing and media delay the reply. Admit is called once per transfer
// attempt with the instant the request finishes arriving over the link;
// it returns when the server is done with it (>= arrival), and that excess
// lands on this device's timeline — callers queue behind server contention
// exactly as they queue behind the link. addr < 0 marks traffic with no
// server-side placement (pure forwards, e.g. machine-to-machine migration).
//
// Determinism contract: Admit is invoked in the issue order of this machine's
// transfers; a shared endpoint serializes admissions from the whole fleet in
// kernel dispatch order, so any -j gives the same timeline.
type RemoteEndpoint interface {
	Admit(arrival sim.Time, addr int64, bytes int, write bool) sim.Time
}

// SetRemote attaches the far-side endpoint; nil (the default) models an
// infinitely fast server, which keeps single-machine runs byte-identical to
// the pre-endpoint model.
func (n *Net) SetRemote(r RemoteEndpoint) { n.remote = r }

// Granularity reports the packet payload size (the fs.Device interface).
func (n *Net) Granularity() int { return n.params.PacketBytes }

// Stats reports transfer counters. Seeks are always zero: networks do not
// seek, which is itself a modelling point of difference from the disk.
func (n *Net) Stats() stats.Disk { return n.st }

// BusyUntil reports when the send queue drains.
func (n *Net) BusyUntil() sim.Time { return n.busyAt }

func (n *Net) opTime(bytes int) time.Duration {
	return n.params.PerOp + n.params.RTT + n.params.TransferTime(bytes)
}

func (n *Net) start() sim.Time {
	now := n.clock.Now()
	if n.busyAt > now {
		return n.busyAt
	}
	return now
}

// backoff reports the capped exponential delay before retry attempt number
// attempt (1-based): RetryBase doubling per attempt, capped at RetryMax.
func (p Params) backoff(attempt int) time.Duration {
	d := p.RetryBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.RetryMax > 0 && d >= p.RetryMax {
			return p.RetryMax
		}
	}
	if p.RetryMax > 0 && d > p.RetryMax {
		return p.RetryMax
	}
	return d
}

// attempt performs one transfer attempt: charge service time on the busy
// timeline, let the remote endpoint delay the reply, and draw the
// injected-failure decision. A write is a crash point like a disk's, torn
// at packet granularity.
func (n *Net) attempt(addr int64, bytes int, write bool, sync bool) error {
	svc := n.opTime(bytes) + n.faults.Latency()
	st := n.start()
	wait := time.Duration(st - n.clock.Now())
	done := st.Add(svc)
	if n.remote != nil {
		// The request lands on the server when the link finishes carrying it;
		// the server's own queueing and media extend the reply, and that time
		// is part of this attempt's service as seen by the caller.
		done = n.remote.Admit(done, addr, bytes, write)
		svc = time.Duration(done - st)
	}
	n.busyAt = done
	n.st.BusyTime += svc
	n.waitHist.Observe(wait)
	n.svcHist.Observe(svc)
	class := obs.ClassDiskRead
	if write {
		class = obs.ClassDiskWrite
	}
	if n.bus.Enabled(class) {
		n.bus.Emit(obs.Event{
			T: done, Class: class, Sub: obs.SubNet,
			Bytes: int64(bytes), Dur: svc, Aux: int64(wait),
		})
	}
	if sync {
		n.clock.ChargeTo(sim.CauseDevice, done)
	}
	if !write {
		return n.faults.DiskRead()
	}
	if err := n.faults.CrashWrite(bytes, n.params.PacketBytes); err != nil {
		return err
	}
	return n.faults.DiskWrite()
}

// transfer runs the attempt/backoff loop: each failed attempt backs off in
// virtual time (doubling, capped) and reissues the whole transfer. Failures
// only occur under injection, so in a fault-free run exactly one attempt is
// made and the cost model is unchanged. A crash ends the loop: a dead
// machine does not back off, and the first CrashError is the one that
// carries the tear.
func (n *Net) transfer(addr int64, bytes int, write bool, sync bool) error {
	err := n.attempt(addr, bytes, write, sync)
	for retry := 1; err != nil && !n.faults.Crashed() && retry <= n.params.Retries; retry++ {
		n.st.Retries++
		wait := n.params.backoff(retry)
		if n.bus.Enabled(obs.ClassRetry) {
			n.bus.Emit(obs.Event{
				T: n.clock.Now(), Class: obs.ClassRetry, Sub: obs.SubNet,
				Bytes: int64(bytes), Dur: wait, Aux: int64(retry),
			})
		}
		if sync {
			n.clock.Charge(sim.CauseBackoff, wait)
		} else {
			// Queued transfer: the backoff elapses on the device timeline,
			// delaying everything queued behind it, not the caller.
			n.busyAt = n.busyAt.Add(wait)
		}
		err = n.attempt(addr, bytes, write, sync)
	}
	return err
}

// Read fetches n bytes from the page server, blocking the caller. A failed
// transfer is retried with capped exponential backoff in virtual time; the
// error is returned only once retries are exhausted.
func (n *Net) Read(addr int64, bytes int) error {
	n.st.Reads++
	n.st.BytesRead += uint64(bytes)
	return n.transfer(addr, bytes, false, true)
}

// Write sends n bytes to the page server, blocking the caller, with the
// same retry policy as Read.
func (n *Net) Write(addr int64, bytes int) error {
	n.st.Writes++
	n.st.BytesWritten += uint64(bytes)
	return n.transfer(addr, bytes, true, true)
}

// WriteAsync queues a send without blocking; subsequent synchronous
// operations queue behind it. Retries and their backoffs extend the send
// queue's timeline rather than the caller's clock.
func (n *Net) WriteAsync(addr int64, bytes int) (sim.Time, error) {
	n.st.Writes++
	n.st.BytesWritten += uint64(bytes)
	err := n.transfer(addr, bytes, true, false)
	return n.busyAt, err
}

// Drain advances the clock until the send queue empties.
func (n *Net) Drain() {
	n.clock.ChargeTo(sim.CauseDrain, n.busyAt)
}
