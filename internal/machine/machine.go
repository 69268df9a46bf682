package machine

import (
	"errors"
	"fmt"
	"time"

	"compcache/internal/compress"
	"compcache/internal/core"
	"compcache/internal/disk"
	"compcache/internal/fault"
	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/policy"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/stats"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// device is what a machine asks of its backing hardware: the file system's
// interface plus the wiring and the snapshot walk of the disk.Queue every
// device embeds.
type device interface {
	fs.Device
	SetFaultInjector(*fault.Injector)
	SetObserver(*obs.Bus)
	Snap(*snap.Codec)
}

// Machine is a simulated computer. All subsystems share one virtual clock;
// running a workload against the machine produces deterministic virtual-time
// measurements.
type Machine struct {
	machineState
	cfg Config

	Clock *sim.Clock
	Pool  *mem.Pool
	// Device is the backing hardware: a *disk.Disk unless the configuration
	// selects a network page server (*netdev.Net).
	Device device
	FS     *fs.FS
	VM     *vm.VM
	CC     *core.Cache // nil when the compression cache is disabled

	store     store // the machine's own backing store: the last link of below
	storeKind uint8 // its tag in the snapshot stream
	alloc     *policy.Allocator
	codec     compress.Codec
	faults    *fault.Injector      // nil when no fault config is given
	recovery  *swap.RecoveryReport // mount-time recovery report (NewFromMedia only)

	bus        *obs.Bus       // nil without WithObs
	compHist   *obs.Histogram // machine.compress_page — per-page compression time
	decompHist *obs.Histogram // machine.decompress_page — per-page decompression time

	// below is the tier chain under memory, in the order PageOut offers and
	// PageIn asks: fleet memory when WithRemote attached it (compression-cache
	// machines only), then — always — the machine's own store.
	below []link

	// Hot-path scratch. The machine is single-goroutine, and every consumer
	// of these buffers copies at the boundary before returning — core.Cache
	// .Insert copies into the cache's frames, a Tier copies what it keeps —
	// so one compression buffer and one neighbor-staging buffer serve every
	// PageOut/PageIn/Store without per-call allocation.
	compBuf []byte // codec.Compress destination, reused across calls
	nbrBuf  []byte // neighbor staging (corrupt+verify)

	// forms is every form of a page the host remembers so as not to produce
	// it again (memo.go); nil remembers nothing. It points at kept, unless
	// the build forgets (keepForms).
	forms *forms
	kept  forms

	base       books      // where the conservation equations start; see time.go
	startSpent sim.Ledger // the clock's ledger at the Elapsed() origin
}

// machineState is the machine's own replay state — what a snapshot carries
// beyond the subsystems' state. A dead machine (Err set) is never
// snapshotted.
type machineState struct {
	segCodec    []compress.Codec // per-segment override (§3) by segment id, nil = none; stored by name
	comp        stats.Compression
	fst         stats.Faults // machine-side detection/recovery counters; the injector owns the rest
	start       sim.Time
	startFrozen bool
}

// New builds a machine from the configuration. Options attach the machine to
// its surroundings — observability, a shared discrete-event kernel, a remote
// page store; see Option.
func New(cfg Config, opts ...Option) (*Machine, error) { return buildMachine(cfg, nil, opts) }

// NewFromMedia boots a machine from a media image — the reboot-after-crash
// path. The image (captured with FS.Image() before or after the crash) is
// loaded into the fresh file system and the backing store is mounted through
// its recovery scanner instead of being created empty; the resulting
// RecoveryReport is available from Introspect().Recovery and its counters
// appear in Stats().Faults. The configuration must select a recoverable
// on-media format (a compressed machine with Swap.CommitRecords, or a
// durable LFS baseline) — both are enabled automatically when crash
// injection is configured.
func NewFromMedia(cfg Config, img *fs.Image, opts ...Option) (*Machine, error) {
	if img == nil {
		return nil, fmt.Errorf("machine: NewFromMedia needs a media image")
	}
	return buildMachine(cfg, img, opts)
}

func buildMachine(cfg Config, img *fs.Image, opts []Option) (*Machine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	var b buildOpts
	for _, o := range opts {
		o(&b)
	}
	if b.remote != nil && !cfg.CC.Enabled {
		return nil, fmt.Errorf("machine: WithRemote needs a compression cache: fleet memory holds pages in the checksummed travel form only that machine produces")
	}
	m := &Machine{cfg: cfg, Clock: &sim.Clock{}}
	if keepForms {
		m.forms = &m.kept
	}
	if b.kernel != nil {
		// Attach before any subsystem exists so construction-time charges land
		// on the actor clock; see the WithKernel contract.
		b.kernel.Attach(m.Clock, b.actor)
	}
	// The books open with the clock: nothing counted yet, nothing booked.
	m.base.now = m.Clock.Now()

	frames := int(cfg.MemoryBytes / int64(cfg.PageSize))
	m.Pool = mem.NewPool(frames, cfg.PageSize)

	if b.obs != nil {
		m.bus = obs.NewBus(*b.obs)
	}
	// Probe handles are nil-safe, so they are cached unconditionally.
	m.compHist = m.bus.Histogram("machine.compress_page")
	m.decompHist = m.bus.Histogram("machine.decompress_page")

	var err error
	if cfg.Faults != nil {
		m.faults, err = fault.New(*cfg.Faults, m.Clock)
		if err != nil {
			return nil, err
		}
		m.faults.SetObserver(m.bus)
	}
	if cfg.Net != nil {
		m.Device, err = netdev.New(*cfg.Net, m.Clock)
	} else {
		m.Device, err = disk.New(cfg.Disk, m.Clock)
	}
	if err != nil {
		return nil, err
	}
	m.Device.SetFaultInjector(m.faults)
	m.Device.SetObserver(m.bus)
	m.FS, err = fs.New(cfg.FS, m.Device, m.Clock, m.Pool)
	if err != nil {
		return nil, err
	}
	if img != nil {
		if err := m.FS.LoadImage(img); err != nil {
			return nil, err
		}
	}
	m.VM = vm.New(m.Clock, m.Pool, cfg.Cost)
	m.VM.SetPager(m)
	m.VM.SetObserver(m.bus)

	m.alloc = policy.NewAllocator(m.Pool, m.Clock)
	m.alloc.Register(m.FS, cfg.Biases.FS)
	m.alloc.Register(m.VM, cfg.Biases.VM)

	switch {
	case cfg.CC.Enabled:
		m.codec, err = compress.Lookup(cfg.CC.Codec)
		if err != nil {
			return nil, err
		}
		m.compBuf = make([]byte, 0, m.codec.MaxCompressedSize(cfg.PageSize))
		m.CC = core.New(cfg.coreParams(), m.Clock, m.Pool)
		m.CC.SetObserver(m.bus)
		m.alloc.Register(ccConsumer{m.CC}, cfg.Biases.CC)
		var clustered *swap.Clustered
		if img != nil {
			if !cfg.Swap.CommitRecords {
				return nil, fmt.Errorf("machine: NewFromMedia on a compressed machine requires Swap.CommitRecords")
			}
			clustered, m.recovery, err = swap.RecoverClustered(cfg.Swap, m.FS, m.bus, m.Clock)
		} else {
			clustered, err = swap.NewClustered(cfg.Swap, m.FS)
		}
		if err != nil {
			return nil, err
		}
		clustered.SetObserver(m.bus, m.Clock)
		// The cleaner batches straight into the store, it does not walk the
		// chain; on error the batch stays dirty in the cache and is retried.
		m.CC.SetHooks(func(items []swap.Item) error { return clustered.WriteCluster(items, true) }, m.entryDropped)
		m.CC.SetFrameTaker(&m.kept.memo)
		m.store, m.storeKind = &clusteredTier{Clustered: clustered, faults: m.faults}, storeClustered
		if b.remote != nil {
			m.below = append(m.below, link{tier: b.remote, name: "remote", src: vm.SrcRemote})
		}
		if cfg.CC.FixedFrames > 0 {
			m.CC.Prefill(cfg.CC.FixedFrames)
		}
		if cfg.CC.FileCache {
			m.FS.SetCompressedBlockCache(fsBlockCache{m})
		}
	case cfg.LFSSwap != nil:
		lfsCfg := *cfg.LFSSwap
		if lfsCfg.PageSize == 0 {
			lfsCfg.PageSize = cfg.PageSize
		}
		var lfs *swap.LFS
		if img != nil {
			if !lfsCfg.Durable {
				return nil, fmt.Errorf("machine: NewFromMedia on an LFS machine requires LFSSwap.Durable")
			}
			lfs, m.recovery, err = swap.RecoverLFS(lfsCfg, m.FS, m.Pool, m.bus, m.Clock)
		} else {
			lfs, err = swap.NewLFS(lfsCfg, m.FS, m.Pool)
		}
		if err != nil {
			return nil, err
		}
		m.store, m.storeKind = lfsTier{lfs}, storeLFS
	default:
		if img != nil {
			return nil, fmt.Errorf("machine: NewFromMedia requires a recoverable backing store (Swap.CommitRecords or a durable LFS)")
		}
		direct, err := swap.NewDirect(m.FS, cfg.PageSize)
		if err != nil {
			return nil, err
		}
		m.store, m.storeKind = directTier{direct}, storeDirect
	}
	m.below = append(m.below, link{tier: m.store, name: "backing-store", src: vm.SrcSwap, raw: m.storeKind != storeClustered})
	if rep := m.recovery; rep != nil {
		m.fst.RecoveredSegments += uint64(rep.RecoveredSegments)
		m.fst.TornWritesDiscarded += uint64(rep.TornDiscarded)
	}

	m.VM.SetFrameSource(m.allocFrame)
	m.FS.SetFrameSource(m.allocFrame)
	return m, nil
}

// ccConsumer adapts the compression cache to the policy interface with its
// registry name.
type ccConsumer struct{ *core.Cache }

func (ccConsumer) Name() string { return "cc" }

// Config returns the machine's (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Err returns the first fatal error the machine hit while servicing the
// workload (an unrecoverable page loss or a propagated device failure), or
// nil. Once Err is non-nil the Space access methods become no-ops: the
// simulated process is dead and the workload's remaining references are not
// executed. Harnesses check Err after the workload returns. The VM keeps
// the error (vm.VM.Err): only a reference can kill the process.
func (m *Machine) Err() error { return m.VM.Err() }

// Faults reports the machine-side fault counters (detections, recoveries,
// mount-time recovery results) merged with the injector's counters.
func (m *Machine) Faults() stats.Faults {
	f := m.faults.Stats()
	f.CorruptionsDetected = m.fst.CorruptionsDetected
	f.Recoveries = m.fst.Recoveries
	f.RecoveredSegments = m.fst.RecoveredSegments
	f.TornWritesDiscarded = m.fst.TornWritesDiscarded
	return f
}

// Events returns the retained event window in emission order (nil when
// observability is disabled).
func (m *Machine) Events() []obs.Event { return m.bus.Events() }

// Metrics captures the machine's metrics registry in deterministic sorted
// order (nil when observability is disabled).
func (m *Machine) Metrics() *obs.Snapshot { return m.bus.Snapshot() }

// Elapsed reports the virtual time since the machine was created or since
// the last ResetClockBase call.
func (m *Machine) Elapsed() time.Duration { return time.Duration(m.Clock.Now() - m.start) }

// MarkStart makes subsequent Elapsed() calls measure from now; workloads use
// it to exclude their setup phase if desired. Under FreezeStart it is a
// no-op.
func (m *Machine) MarkStart() {
	if m.startFrozen {
		return
	}
	m.start, m.startSpent = m.Clock.Now(), m.Clock.Spent()
}

// FreezeStart pins the Elapsed() origin at the current instant and makes
// later MarkStart calls no-ops. The multiprogramming runner uses it so that
// member workloads' own MarkStart calls cannot reset the shared clock
// origin.
func (m *Machine) FreezeStart() {
	m.start, m.startSpent = m.Clock.Now(), m.Clock.Spent()
	m.startFrozen = true
}

// Drain waits for all queued asynchronous backing-store writes to finish,
// so that end-of-run timings include background cleaning.
func (m *Machine) Drain() { m.Device.Drain() }

// EvictAll pushes every resident page out of memory, empties the compression
// cache to the backing store, and drops the file cache. It models a freshly
// (re)started process whose address space lives entirely on the backing
// store — the setup for the gold "cold" benchmark.
func (m *Machine) EvictAll() error {
	for {
		more, err := m.VM.ReleaseOldest()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	if m.CC != nil {
		for {
			more, err := m.CC.ReleaseOldest()
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	if err := m.FS.DropCaches(); err != nil {
		return err
	}
	m.Drain()
	return nil
}

// NewSegmentCodec creates a segment whose pages are compressed with a
// specific codec instead of the machine default — §3's requirement that the
// design "allow different compression algorithms to be used for different
// types of data, in order to get the best compression rates and/or
// throughput".
func (m *Machine) NewSegmentCodec(name string, bytes int64, codec string) (*Space, error) {
	c, err := compress.Lookup(codec)
	if err != nil {
		return nil, err
	}
	sp := m.NewSegment(name, bytes)
	for int(sp.seg.ID) >= len(m.segCodec) {
		m.segCodec = append(m.segCodec, nil)
	}
	m.segCodec[sp.seg.ID] = c
	return sp, nil
}

// codecFor returns the codec for a segment's pages.
func (m *Machine) codecFor(seg int32) compress.Codec {
	if uint(seg) < uint(len(m.segCodec)) && m.segCodec[seg] != nil {
		return m.segCodec[seg]
	}
	return m.codec
}

// NewSegment creates a virtual-memory segment of at least `bytes` bytes and
// returns an address space handle for it.
func (m *Machine) NewSegment(name string, bytes int64) *Space {
	if bytes <= 0 {
		// Invariant: a workload asking for a non-positive segment is a
		// programming error in the workload, not a runtime fault.
		panic("machine: segment size must be positive")
	}
	npages := int32((bytes + int64(m.cfg.PageSize) - 1) / int64(m.cfg.PageSize))
	return &Space{m: m, seg: m.VM.NewSegment(name, npages)}
}

// allocFrame is the policy-arbitrated frame source shared by the VM fault
// path and the file cache.
func (m *Machine) allocFrame(owner mem.Owner) (mem.FrameID, error) {
	id, err := m.alloc.AllocFrame(owner)
	if err != nil {
		return mem.NoFrame, err
	}
	if m.hasTail(id) {
		m.claimTail(id, owner)
	}
	m.maybeClean()
	return id, nil
}

// maybeClean runs the background cleaner: if the stock of immediately
// usable frames (free plus clean-reclaimable) is below the reserve, write
// out the oldest dirty compressed data in clustered batches. The write is
// asynchronous; its cost appears as device busy time that later synchronous
// reads queue behind, exactly how the paper's cleaner thread overlaps with
// computation.
func (m *Machine) maybeClean() {
	if m.CC == nil {
		return
	}
	guard := 8 // bound cleaning work per trigger
	for m.Pool.FreeCount()+m.CC.ReclaimableFrames() < m.cfg.CC.CleanReserve && guard > 0 {
		n, err := m.CC.Clean()
		if err != nil {
			// A failed cleaner flush is not fatal: the batch stays dirty in
			// the cache (Clean marks nothing clean on error) and is retried
			// on a later trigger, so no data is lost — the reserve just
			// stays low for a while. Degrade instead of killing the run.
			return
		}
		if n == 0 {
			return
		}
		guard--
	}
}

// Stats assembles the full statistics block: nested per-subsystem views
// (VM, Comp, Disk, CC, Swap, Faults) plus — when the machine carries an
// observability bus — a deterministic snapshot of its metrics registry in
// Metrics.
func (m *Machine) Stats() stats.Run {
	r := stats.Run{
		VM:     m.VM.Stats(),
		Comp:   m.comp,
		Disk:   m.Device.Stats(),
		Swap:   m.store.Stats(),
		Faults: m.Faults(),
		Time:   m.Elapsed(),
	}
	if m.CC != nil {
		r.CC = m.CC.Stats()
	}
	if m.bus != nil {
		// Gauges are levels, sampled at snapshot time rather than maintained
		// on the hot path.
		m.bus.Gauge("vm.resident_pages").Set(int64(m.VM.ResidentPages()))
		m.bus.Gauge("pool.free_frames").Set(int64(m.Pool.FreeCount()))
		if m.CC != nil {
			m.bus.Gauge("cc.frames").Set(int64(m.CC.FrameCount()))
			m.bus.Gauge("cc.live_bytes").Set(int64(m.CC.LiveBytes()))
			m.bus.Gauge("cc.dirty_bytes").Set(int64(m.CC.DirtyBytes()))
		}
		r.Metrics = m.bus.Snapshot()
	}
	return r
}

// ---------------------------------------------------------------------------
// vm.Pager implementation: the paging policy of §4.1.

// PageOut handles a page leaving uncompressed memory. Write failures that
// leave a valid copy somewhere (a dirty cache entry, the old backing-store
// extent) degrade silently and are retried later; a failure that loses the
// only copy returns fault.UnrecoverableError.
func (m *Machine) PageOut(p *vm.Page, data []byte) error {
	it := swap.Item{Key: p.Key, Data: data}
	var insErr error
	var form []byte
	var sum uint32
	var hit, whole bool
	if m.CC != nil {
		form, sum, hit, whole = m.departing(p)
		if !p.Dirty && m.CC.Has(p.Key) {
			// Fast path: the page was faulted out of the cache and never
			// modified, so its compressed copy is still valid — re-entering
			// the cache is just a page-table update, no compression (§4.1's
			// retained compressed copies; this is what keeps read-mostly
			// working sets cheap). The entry is the one the page's
			// remembered form and its sum came from.
			p.State = vm.Compressed
			it.Data, it.Compressed, it.Sum = form, form != nil, sum
			if it.Compressed && whole {
				m.departPlain(p, data, sum, hit)
			}
		} else if cdata, keep := m.compress(p.Key, data, form); keep {
			// Compress once, then decide the page's fate: the cache keeps it
			// if it fits, otherwise it goes to the first tier below that
			// takes it — raw when it missed the 4:3 threshold and the
			// compression effort was wasted (§5.2).
			if form == nil {
				sum = core.Checksum(cdata)
			}
			it.Data, it.Compressed, it.Sum = cdata, true, sum
			// data is the lent frame, and the insert may take it and write
			// its bytes: data's last read comes first.
			if whole {
				m.departPlain(p, data, sum, hit)
			}
			var ok bool
			if ok, insErr = m.CC.InsertSummed(p.Key, cdata, sum, p.Dirty); ok {
				p.State = vm.Compressed
				p.Dirty = false // dirtiness now tracked by the cache entry
				m.maybeClean()
			}
			// Otherwise the cache could not take the page: no memory, or the
			// flush that would have made room failed (insErr — the flushed
			// batch stays dirty in the cache and is retried later, so insErr
			// alone loses nothing). The page goes below compressed, still
			// benefiting from the reduced transfer size.
		}
	}
	if p.State != vm.Compressed {
		// A clean page with a valid copy below is simply discarded (on a
		// baseline machine every clean page the VM hands over has one:
		// PageIn said so).
		if p.Dirty || !p.SwapValid {
			if err := m.putBelow(it, insErr); err != nil {
				return err
			}
			p.SwapValid = true
		}
		p.Dirty = false
		p.State = vm.Swapped
	}
	return nil
}

// compress runs a page through its segment's codec into the machine's
// scratch buffer, charging the cost model, and reports whether the result
// clears the keep threshold. Insert copies into the cache's frames and a
// Tier copies what it keeps, so the buffer is free again by the time the
// caller returns. A non-nil form is what the codec would make of data (see
// compressMemo). A codec whose output length is known (knownLen) to miss
// the threshold is not run at all: cdata is nil, and the caller sends data on
// raw. The simulated machine compresses in full all the same — every charge
// and counter below — and only the host skips the work.
func (m *Machine) compress(key swap.PageKey, data, form []byte) (cdata []byte, keep bool) {
	m.Clock.Charge(sim.CauseCompress, m.cfg.Cost.CompressCost(len(data)))
	m.compHist.Observe(m.cfg.Cost.CompressCost(len(data)))
	m.comp.Compressions++
	m.comp.BytesIn += uint64(len(data))
	if cdata = form; cdata == nil {
		codec := m.codecFor(key.Seg)
		if n := m.knownLen(codec, len(data)); n > m.cfg.keepThreshold() {
			m.comp.BytesOut += uint64(n)
			m.comp.Incompressible++
			return nil, false
		}
		cdata = codec.Compress(m.compBuf[:0], data)
		m.compBuf = cdata[:0]
	}
	m.comp.BytesOut += uint64(len(cdata))
	if len(cdata) > m.cfg.keepThreshold() {
		m.comp.Incompressible++
		return cdata, false
	}
	m.comp.CompressibleIn += uint64(len(data))
	m.comp.CompressibleOut += uint64(len(cdata))
	return cdata, true
}

// putBelow offers a page leaving memory to each tier in order — fleet memory
// is faster than the local backing store — until one takes it. A compressed
// item arrives summed; a raw one is summed once, for the first tier whose
// format carries a checksum. If no tier takes the page the frame is gone and
// the only copy with it.
func (m *Machine) putBelow(it swap.Item, insErr error) error {
	var err error
	summed := it.Compressed
	for i := range m.below {
		l := &m.below[i]
		if !l.raw && !summed {
			it.Sum, summed = core.Checksum(it.Data), true
		}
		if err = l.tier.Put(it); err == nil {
			return nil
		}
	}
	return unrecoverable(it.Key, "backing-store write failed for the only copy", errors.Join(insErr, err))
}

// unrecoverable reports that the only copy of a page is gone.
func unrecoverable(key swap.PageKey, reason string, err error) error {
	return &fault.UnrecoverableError{Page: key.String(), Reason: reason, Err: err}
}

// heldBelow reports whether any tier of the chain holds a current copy.
func (m *Machine) heldBelow(key swap.PageKey) bool {
	for i := range m.below {
		if m.below[i].tier.Has(key) {
			return true
		}
	}
	return false
}

// PageIn services a fault for a page whose contents are compressed in
// memory or held by a tier below, restoring the whole page (PageInPrefix).
func (m *Machine) PageIn(p *vm.Page, data []byte) (vm.Source, error) {
	src, _, err := m.PageInPrefix(p, data, len(data))
	return src, err
}

// PageInPrefix implements vm.PrefixPager: it services a fault for a page
// whose contents are compressed in memory or held by a tier below, decoding
// a compressed form only as far as the first need bytes (restorePage). A
// corrupt compression-cache fragment is recovered from the first tier that
// has a clean copy (the entry is dropped, the tier's read proceeds at its
// usual virtual-time cost, and the recovery is counted); a corrupt or
// unreadable fragment with no lower-level copy returns
// fault.UnrecoverableError. A fragment whose checksum holds but that the
// codec rejects past the decoded prefix is found only by the reference that
// reaches it (Extend), and is fatal then.
func (m *Machine) PageInPrefix(p *vm.Page, data []byte, need int) (vm.Source, int, error) {
	known := m.returnPlain(p)
	if m.CC != nil {
		if cdata, sum, entryDirty, ok := m.CC.Fault(p.Key); ok {
			m.faults.CorruptCache(cdata)
			valid, err := m.restorePage(p, data, cdata, true, sum, known, true, need)
			if err == nil {
				// The entry is retained and backs the resident copy, so the
				// page itself is clean; SwapValid tracks whether the entry
				// has been persisted. Modifying the page invalidates the
				// entry (see Dirtied).
				p.Dirty = false
				p.SwapValid = !entryDirty
				return vm.SrcCC, valid, nil
			}
			// The in-memory fragment is corrupt. Drop the entry; if a tier
			// below has a clean copy of the same contents, recover from it
			// at that tier's usual cost.
			m.CC.Drop(p.Key)
			if entryDirty || !m.heldBelow(p.Key) {
				return 0, 0, unrecoverable(p.Key, "corrupt cache entry with no backing copy", err)
			}
			m.fst.Recoveries++
			if m.bus.Enabled(obs.ClassRecovery) {
				m.bus.Emit(obs.Event{
					T: m.Clock.Now(), Class: obs.ClassRecovery, Sub: obs.SubMachine,
					Seg: p.Key.Seg, Page: p.Key.Page,
				})
			}
		}
	}

	// The first tier that holds the page serves the fault. Dirtied
	// invalidates every tier, so whatever one holds is current; below memory
	// and its cache there is no further fallback — a tier that fails to
	// deliver what it holds had the only remaining copy.
	for i := range m.below {
		l := &m.below[i]
		payload, compressed, sum, along, ok, err := l.tier.Get(p.Key, data)
		if !ok {
			continue
		}
		if err != nil {
			return 0, 0, unrecoverable(p.Key, l.name+" read failed", err)
		}
		valid := len(data)
		if l.raw {
			m.Clock.Charge(sim.CauseCopy, m.cfg.Cost.PageCopy) // the tier filled the frame
		} else if valid, err = m.restorePage(p, data, payload, compressed, sum, known, false, need); err != nil {
			return 0, 0, unrecoverable(p.Key, "corrupt "+l.name+" copy", err)
		}
		p.Dirty = false
		p.SwapValid = true
		if len(along) > 0 {
			m.insertNeighbors(along)
		}
		return l.src, valid, nil
	}
	return 0, 0, unrecoverable(p.Key, fmt.Sprintf("page in state %v has no backing copy", p.State), nil)
}

// Extend implements vm.PrefixPager: it decodes more of the tail of partial
// page p's frame (decodeTail). A codec rejection there is the reference's
// machine check: the page's only verified form is bad past the prefix, and
// the fault that could have recovered it from below is over.
func (m *Machine) Extend(p *vm.Page, _ []byte, need int) (int, error) {
	valid, err := m.decodeTail(p.Frame, need)
	if err != nil {
		return 0, unrecoverable(p.Key, "compressed form rejected past the decoded prefix", err)
	}
	return valid, nil
}

// insertNeighbors caches pages that came along for free with a tier's
// transfer — in practice a clustered read ("multiple pages can be obtained
// with a single read from the backing store", §5.1). Only compressed, currently swapped-out pages are inserted,
// and only when the cache can take them without stealing memory. A neighbor
// whose checksum does not verify is skipped — the prefetch is an
// opportunistic copy; the extent on the backing store stays authoritative.
func (m *Machine) insertNeighbors(neighbors []swap.Item) {
	for _, n := range neighbors {
		if !n.Compressed {
			continue
		}
		seg := m.VM.Segment(n.Key.Seg)
		if seg == nil {
			continue
		}
		p := seg.Page(n.Key.Page)
		if p.State != vm.Swapped || m.CC.Has(n.Key) {
			continue
		}
		// Stage the neighbor in the machine scratch buffer so fault injection
		// corrupts the staged copy, not the clustered read buffer; Insert
		// below copies again into the cache's frames.
		m.nbrBuf = append(m.nbrBuf[:0], n.Data...)
		cdata := m.nbrBuf
		m.faults.CorruptSwap(cdata)
		if core.Checksum(cdata) != n.Sum {
			m.fst.CorruptionsDetected++
			continue
		}
		m.Clock.Charge(sim.CauseCopy, m.cfg.Cost.PageCopy/4) // short memcpy of compressed bytes
		ok, err := m.CC.InsertSummed(n.Key, cdata, n.Sum, false)
		if err != nil {
			continue // flush failure: skip the opportunistic insert
		}
		if !ok {
			// No free frame: this is how the paper's swap reads behave —
			// they land in the compression cache, displacing the oldest
			// memory by the usual age comparison. Make room and retry once.
			freed, ferr := m.alloc.FreeOne()
			if ferr != nil || !freed {
				continue
			}
			if ok, err = m.CC.InsertSummed(n.Key, cdata, n.Sum, false); err != nil || !ok {
				continue
			}
		}
		p.State = vm.Compressed
	}
}

// Dirtied invalidates stale lower-level copies when a clean resident page is
// first modified: the retained compression-cache entry and the copy in any
// tier below both go stale at that moment, and so does the remembered
// compressed form.
func (m *Machine) Dirtied(p *vm.Page) {
	if m.CC != nil {
		m.CC.Drop(p.Key)
		m.recall(p)
	}
	for i := range m.below {
		m.below[i].tier.Invalidate(p.Key)
	}
}

// ---------------------------------------------------------------------------
// fs.CompressedBlockCache implementation: §6's compressed file cache.
// File blocks share the compression cache with VM pages under synthetic
// negative segment IDs, so one pool of compressed memory serves both, with
// the usual aging and reclamation.

// fsBlockCache adapts the compression cache to the file system.
type fsBlockCache struct{ m *Machine }

// fsBlockKey maps a (file, block) pair into the page-key namespace; file
// cache entries use negative segment IDs, which no VM segment ever has.
func fsBlockKey(fileID int32, block int64) swap.PageKey {
	return swap.PageKey{Seg: -1 - fileID, Page: int32(block)}
}

// Store implements fs.CompressedBlockCache.
func (f fsBlockCache) Store(fileID int32, block int64, data []byte) (bool, error) {
	m := f.m
	key := fsBlockKey(fileID, block)
	if m.CC.Has(key) {
		return true, nil // still-valid compressed copy from an earlier eviction
	}
	cdata, keep := m.compress(key, data, nil)
	if !keep {
		return false, nil
	}
	// File blocks are always clean here (written back before Store), so the
	// entry can be dropped at any time without I/O.
	return m.CC.Insert(key, cdata, false)
}

// Load implements fs.CompressedBlockCache. A corrupt cached block is
// dropped and reported as a miss, not an error: the block is durable on the
// device, so the file system falls back to a device read.
func (f fsBlockCache) Load(fileID int32, block int64, data []byte) (bool, error) {
	m := f.m
	key := fsBlockKey(fileID, block)
	cdata, sum, _, ok := m.CC.Fault(key)
	if !ok {
		return false, nil
	}
	m.faults.CorruptCache(cdata)
	if err := m.restoreInto(data, cdata, true, sum, key, nil); err != nil {
		m.CC.Drop(key)
		return false, nil
	}
	return true, nil
}

// Invalidate implements fs.CompressedBlockCache.
func (f fsBlockCache) Invalidate(fileID int32, block int64) {
	f.m.CC.Drop(fsBlockKey(fileID, block))
}

// entryDropped is called when frame reclamation discards a live clean entry.
// If the page lived in the cache it now lives only on the backing store; if
// it is resident (the entry was a retained copy of an unmodified page), the
// backing store still holds the same contents.
func (m *Machine) entryDropped(key swap.PageKey) {
	seg := m.VM.Segment(key.Seg)
	if seg == nil {
		return
	}
	p := seg.Page(key.Page)
	switch p.State {
	case vm.Compressed:
		p.State = vm.Swapped
		p.SwapValid = true
		p.Dirty = false
	case vm.Resident, vm.Partial:
		// Reclaim only drops clean entries, so the backing store has the
		// contents.
		p.SwapValid = true
	}
}

// restoreInto verifies a page's travel form and rebuilds the page in data,
// charging the cost model: decompression for a compressed payload, a page
// copy for a raw one. sum is the payload's checksum computed when it left
// memory; verification runs before the codec so a flipped bit can never
// decompress to a silently wrong page. A checksum mismatch, codec rejection,
// or length mismatch returns a *fault.CorruptionError; callers decide whether
// a fallback copy exists. A non-nil plain is what payload decodes to, the
// page's remembered plaintext of this very travel form (see plainMemo): it is
// copied in instead of decoded — the simulated machine decompresses all the
// same, and only the host skips the work.
func (m *Machine) restoreInto(data, payload []byte, compressed bool, sum uint32, key swap.PageKey, plain []byte) error {
	if err := m.verify(data, payload, compressed, sum, key); err != nil {
		return err
	}
	if !compressed {
		copy(data, payload)
		return nil
	}
	if plain != nil {
		copy(data, plain)
		return nil
	}
	out, err := m.codecFor(key.Seg).Decompress(data[:0], payload)
	if err != nil {
		m.fst.CorruptionsDetected++
		return &fault.CorruptionError{Page: key.String(), Reason: "codec rejected fragment", Err: err}
	}
	if len(out) != len(data) {
		m.fst.CorruptionsDetected++
		return &fault.CorruptionError{
			Page:   key.String(),
			Reason: fmt.Sprintf("decompressed to %d bytes, want %d", len(out), len(data)),
		}
	}
	// Decompress appends to data[:0]; a codec that transiently grows past
	// cap(data) leaves the result in a new backing array, and without this
	// copy the page would silently keep its stale contents.
	if len(out) > 0 && &out[0] != &data[0] {
		copy(data, out)
	}
	return nil
}

// verify is where restoring a travel form into data begins: it charges the
// cost model for the whole restore — decompression for a compressed payload,
// a page copy for a raw one — and checks the payload's sum.
func (m *Machine) verify(data, payload []byte, compressed bool, sum uint32, key swap.PageKey) error {
	if compressed {
		m.Clock.Charge(sim.CauseDecompress, m.cfg.Cost.DecompressCost(len(data)))
		m.decompHist.Observe(m.cfg.Cost.DecompressCost(len(data)))
		m.comp.Decompressions++
	} else {
		m.Clock.Charge(sim.CauseCopy, m.cfg.Cost.PageCopy)
	}
	if core.Checksum(payload) != sum {
		m.fst.CorruptionsDetected++
		return &fault.CorruptionError{Page: key.String(), Reason: "checksum mismatch"}
	}
	return nil
}

// CheckInvariants validates cross-subsystem invariants; tests call it after
// stressing a machine.
func (m *Machine) CheckInvariants() error {
	if err := m.Pool.CheckConservation(); err != nil {
		return err
	}
	if err := m.VM.CheckLRU(); err != nil {
		return err
	}
	if m.CC != nil {
		if err := m.CC.CheckConsistency(); err != nil {
			return err
		}
	}
	if err := m.store.CheckConsistency(); err != nil {
		return err
	}
	if err := m.checkBooks(); err != nil {
		return err
	}
	// Every page's state must agree with the subsystem actually holding it,
	// and every frame a subsystem holds must be its own in the pool, once.
	claims := m.Pool.Claims()
	if err := m.FS.CacheFrames(func(id mem.FrameID) error { return claims.Claim(id, mem.FS) }); err != nil {
		return err
	}
	for _, seg := range m.VM.Segments() {
		for i := int32(0); i < seg.NPages; i++ {
			p := seg.Page(i)
			switch p.State {
			case vm.Compressed:
				if m.CC == nil || !m.CC.Has(p.Key) {
					return fmt.Errorf("machine: page %v marked compressed but absent from cache", p.Key)
				}
			case vm.Swapped:
				if !m.heldBelow(p.Key) {
					return fmt.Errorf("machine: page %v marked swapped but absent from backing store", p.Key)
				}
			case vm.Resident, vm.Partial:
				if err := claims.Claim(p.Frame, mem.VM); err != nil {
					return fmt.Errorf("machine: %v page %v: %w", p.State, p.Key, err)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Space: the workload-facing address-space handle.

// Space is a byte-addressable view of one segment. Workloads allocate their
// data structures inside spaces so every access goes through the simulated
// VM system.
//
// The access methods carry no error returns; instead the machine is sticky:
// the first fatal paging error (see Machine.Err) kills the simulated
// process, every later access is a no-op, and the harness reads the cause
// from Err after the workload returns. This mirrors how a real machine
// check behaves — the program does not get per-load error codes.
type Space struct {
	m   *Machine
	seg *vm.Segment
}

// Machine returns the owning machine.
func (s *Space) Machine() *Machine { return s.m }

// Size reports the segment size in bytes.
func (s *Space) Size() int64 { return s.seg.Size(s.m.cfg.PageSize) }

// Pages reports the segment size in pages.
func (s *Space) Pages() int32 { return s.seg.NPages }

// The access methods below are forwards that inline into the workload, so a
// resident hit costs one host call (vm's access or Touch). The VM keeps the
// first error and refuses every later reference, so a forward has nothing to
// do with the error it returns; the harness reads it from Err.

// Touch references one word on page n (reading or writing), the primitive
// the thrasher workload uses.
func (s *Space) Touch(page int32, write bool) { s.m.VM.Touch(s.seg, page, write) }

// Pin faults page n in (if needed) and exempts it from eviction — the §3
// advisory for applications that know LRU will behave poorly.
func (s *Space) Pin(page int32) { s.m.VM.Pin(s.seg, page) }

// Unpin makes page n evictable again.
func (s *Space) Unpin(page int32) { s.m.VM.Unpin(s.seg, page) }

// Read copies from the space into buf.
func (s *Space) Read(off int64, buf []byte) { s.m.VM.Read(s.seg, off, buf) }

// Write copies data into the space.
func (s *Space) Write(off int64, data []byte) { s.m.VM.Write(s.seg, off, data) }

// ReadWord reads the 8-byte word at off. After a fatal machine error it
// returns 0 (the dead process observes nothing): a failed ReadWordInto
// leaves w unwritten.
func (s *Space) ReadWord(off int64) (w uint64) {
	s.m.VM.ReadWordInto(s.seg, off, &w)
	return
}

// WriteWord writes the 8-byte word at off.
func (s *Space) WriteWord(off int64, val uint64) { s.m.VM.WriteWord(s.seg, off, val) }
