package machine

import (
	"fmt"

	"compcache/internal/compress"
	"compcache/internal/snap"
	"compcache/internal/vm"
)

// Snapshot captures the machine's complete simulation state as one opaque
// byte blob: clock, fault injector, device timeline (a disk's or a network
// page server's, each under its own section), frame pool contents, file
// system (platter and buffer cache), page tables and LRU order, compression
// cache ring, backing store, event bus and the machine's own counters.
// Capture is non-perturbing — no virtual time passes and no subsystem state
// changes — so a run that is snapshotted mid-flight continues byte-identical
// to one that is not. (It finishes decoding the pages a partial restore left
// in frames, which only the host sees.)
//
// Restore rebuilds a machine from the same configuration and a snapshot;
// driving the restored machine produces exactly the virtual-time trace and
// statistics the original would have produced. Snapshot refuses dead
// machines (their simulated process is gone; boot from media instead),
// kernel-attached machines (the kernel owns the schedule; snapshot the fleet
// through sim.Kernel.Snap instead), and machines with a remote tier (pages
// only the tier holds would be missing).
func (m *Machine) Snapshot() ([]byte, error) {
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("machine: cannot snapshot a dead machine: %w", err)
	}
	if err := m.snapshottable(); err != nil {
		return nil, err
	}
	// A snapshot carries every frame's bytes, so each frame must hold what
	// it would on a machine that restores pages whole (memo.go).
	if err := m.finishTails(); err != nil {
		return nil, err
	}
	w := snap.NewWriter()
	m.snap(snap.Encoder(w))
	return w.Bytes()
}

func (m *Machine) snapshottable() error {
	if m.Clock.Attached() {
		return fmt.Errorf("machine: snapshot of kernel-attached machines goes through the kernel")
	}
	for _, l := range m.below {
		if l.src == vm.SrcRemote {
			return fmt.Errorf("machine: snapshot of a machine with a remote tier (WithRemote) is not supported: pages only the tier holds are not in the snapshot")
		}
	}
	return nil
}

// Store kind tags in the snapshot stream.
const (
	storeDirect uint8 = iota
	storeLFS
	storeClustered
)

// snap walks the machine's replay state: the configuration fingerprint, each
// subsystem in construction order, then the machine's own counters and
// per-segment codec overrides (by name, segment-sorted).
func (m *Machine) snap(c *snap.Codec) {
	c.Section("machine")
	m.fingerprint(c)

	m.Clock.Snap(c)
	if snap.Const(c, c.Bool, m.faults != nil, "machine: fault injector"); m.faults != nil {
		m.faults.Snap(c)
	}
	m.Device.Snap(c)
	m.Pool.Snap(c)
	m.FS.Snap(c)
	m.VM.Snap(c)
	if snap.Const(c, c.Bool, m.CC != nil, "machine: compression cache"); m.CC != nil {
		m.CC.Snap(c)
	}
	snap.Const(c, func(p *uint8) { snap.Byte(c, p) }, m.storeKind, "machine: backing store kind")
	m.store.Snap(c)
	m.bus.Snap(c)

	c.Section("machine.tail")
	c.Counters(&m.comp)
	c.U64(&m.fst.CorruptionsDetected)
	c.U64(&m.fst.Recoveries)
	c.U64(&m.fst.RecoveredSegments)
	c.U64(&m.fst.TornWritesDiscarded)
	snap.Int64(c, &m.start)
	c.Bool(&m.startFrozen)
	snap.Sparse(c, &m.segCodec, 1<<20, "segment codec overrides", func(c compress.Codec) bool { return c != nil }, func(seg *int32, codec *compress.Codec) {
		var name string
		if !c.Decoding() {
			name = (*codec).Name()
		}
		c.I32(seg)
		c.String(&name)
		if c.Decoding() && c.Err() == nil {
			var err error
			if *codec, err = compress.Lookup(name); err != nil {
				c.Failf("machine: snapshot names codec %q for segment %d: %v", name, *seg, err)
			}
		}
	})
}

// fingerprint visits the configuration facts a snapshot depends on —
// including whether an event bus was attached, which lives in the options,
// not the Config. A snapshot restored under a different fingerprint would
// silently mis-simulate, so decoding rejects it instead.
func (m *Machine) fingerprint(c *snap.Codec) {
	cfg := &m.cfg
	snap.Const(c, c.Int, cfg.PageSize, "machine: page size")
	snap.Const(c, c.I64, cfg.MemoryBytes, "machine: memory bytes")
	snap.Const(c, c.Int, cfg.FS.BlockSize, "machine: block size")
	snap.Const(c, c.Bool, cfg.CC.Enabled, "machine: compression cache")
	if codec := cfg.CC.Codec; cfg.CC.Enabled {
		snap.Const(c, c.String, codec, "machine: codec")
	} else {
		c.String(&codec) // no cache, so the name is never used
	}
	snap.Const(c, c.Bool, cfg.Swap.CommitRecords, "machine: commit records")
	snap.Const(c, c.Bool, cfg.LFSSwap != nil, "machine: LFS swap")
	snap.Const(c, c.Bool, cfg.LFSSwap != nil && cfg.LFSSwap.Durable, "machine: LFS durability")
	snap.Const(c, c.Bool, cfg.Faults != nil, "machine: fault injection")
	snap.Const(c, c.Bool, m.bus != nil, "machine: observability")
}

// Restore builds a machine from a configuration and a snapshot previously
// captured from a machine of the same configuration (pass the same Options
// the original was built with — attachment presence is fingerprinted). The
// rebuilt machine resumes exactly where the snapshot was taken: the same
// virtual clock, page placement, cache contents, device timeline, PRNG
// position and counters. A snapshot that is damaged, forged or from another
// configuration yields an error, never a machine that misbehaves later.
func Restore(cfg Config, data []byte, opts ...Option) (*Machine, error) {
	m, err := New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	if err := m.snapshottable(); err != nil {
		return nil, err
	}
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	m.snap(snap.Decoder(r))
	if err := r.Close(); err != nil {
		return nil, err
	}
	m.openBooks()
	// Validate the assembled machine end to end before handing it back.
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("machine: restored state fails invariants: %w", err)
	}
	return m, nil
}

// SpaceFor returns the address-space handle for a named segment — how a
// workload reattaches to its segments on a restored machine. It reports
// false when no segment has that name; with duplicate names the
// lowest-numbered segment wins (creation order).
func (m *Machine) SpaceFor(name string) (*Space, bool) {
	for _, seg := range m.VM.Segments() {
		if seg.Name == name {
			return &Space{m: m, seg: seg}, true
		}
	}
	return nil, false
}
