// Package netdev models paging over a network to a remote page server — the
// paper's target environment: "mobile computers may communicate over slower
// wireless networks and run either diskless or with small, slower local
// disks" (§1). It implements the same device interface the file system uses
// for a disk, so a whole machine can be built diskless.
//
// Cost model: each operation pays one round-trip latency plus transfer time
// at the link bandwidth, plus whatever a shared page server adds, and a
// failed transfer is retried after a capped exponential backoff. There is no
// seek and no rotational position: a network makes every access "random",
// which is exactly why the paper expects compression to matter more there
// ("slower backing stores, such as wireless networks", §6). Everything else
// — the send queue's busy timeline, counters, probes, fault draws and
// snapshot walk — is the disk.Queue the disk embeds too.
package netdev

import (
	"fmt"
	"time"

	"compcache/internal/disk"
	"compcache/internal/fault"
	"compcache/internal/obs"
	"compcache/internal/sim"
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
	if err := disk.CheckLink("netdev", "PacketBytes", p.BytesPerSec, p.PacketBytes, p.RTT, p.PerOp); err != nil {
		return err
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
	return disk.TransferTime(n, p.PacketBytes, p.BytesPerSec)
}

// Net is a remote page server reached over the modelled link: a disk.Queue
// priced by round trip and transfer. It satisfies the file system's Device
// interface; the remote server's memory plays the platter's role (contents
// are tracked by the fs layer, as with a disk).
type Net struct {
	disk.Queue
	params Params
	remote RemoteEndpoint // nil models an infinitely fast server
}

// New creates a network device on the given clock.
func New(p Params, clock *sim.Clock) (*Net, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := disk.NewQueue(clock, p.PacketBytes, obs.SubNet, "net", "net.queue_wait", "net.service")
	return &Net{Queue: q, params: p}, nil
}

// Params reports the link parameters.
func (n *Net) Params() Params { return n.params }

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

// attempt performs one transfer attempt: price it, let the remote endpoint
// delay the reply, and book it on the queue, which draws the
// injected-failure decision. A write is a crash point like a disk's, torn
// at packet granularity. Networks do not seek, so the Seeks counter stays
// zero, itself a modelling point of difference from the disk.
func (n *Net) attempt(addr int64, bytes int, write bool, sync bool) error {
	st, svc := n.Begin(n.params.PerOp + n.params.RTT + n.params.TransferTime(bytes))
	done := st.Add(svc)
	if n.remote != nil {
		// The request lands on the server when the link finishes carrying it;
		// the server's own queueing and media extend the reply, and that time
		// is part of this attempt's service as seen by the caller.
		done = n.remote.Admit(done, addr, bytes, write)
	}
	return n.Complete(addr, bytes, st, done, write, sync)
}

// transfer runs the attempt/backoff loop: each failed attempt backs off in
// virtual time (doubling, capped) and reissues the whole transfer. Failures
// only occur under injection, so in a fault-free run exactly one attempt is
// made and the cost model is unchanged. A crash ends the loop: a dead
// machine does not back off, and the first CrashError is the one that
// carries the tear.
func (n *Net) transfer(addr int64, bytes int, write bool, sync bool) error {
	n.Count(bytes, write)
	err := n.attempt(addr, bytes, write, sync)
	for retry := 1; err != nil && !fault.IsCrash(err) && retry <= n.params.Retries; retry++ {
		n.Backoff(bytes, retry, n.params.backoff(retry), sync)
		err = n.attempt(addr, bytes, write, sync)
	}
	return err
}

// Read fetches n bytes from the page server, blocking the caller. A failed
// transfer is retried with capped exponential backoff in virtual time; the
// error is returned only once retries are exhausted.
func (n *Net) Read(addr int64, bytes int) error {
	return n.transfer(addr, bytes, false, true)
}

// Write sends n bytes to the page server, blocking the caller, with the
// same retry policy as Read.
func (n *Net) Write(addr int64, bytes int) error {
	return n.transfer(addr, bytes, true, true)
}

// WriteAsync queues a send without blocking; subsequent synchronous
// operations queue behind it. Retries and their backoffs extend the send
// queue's timeline rather than the caller's clock.
func (n *Net) WriteAsync(addr int64, bytes int) (sim.Time, error) {
	err := n.transfer(addr, bytes, true, false)
	return n.BusyUntil(), err
}
