package cluster

import (
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/mem"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/swap"
)

// Config describes a fleet: N identical diskless machines paging over one
// link model to one shared server.
type Config struct {
	// Machines is the fleet size (>= 1). Machine i becomes kernel actor i.
	Machines int

	// MemoryBytes is each machine's physical memory.
	MemoryBytes int64

	// Link is the network path between every machine and the server.
	Link netdev.Params

	// Server parameterizes the shared page server (zero value gets
	// DefaultServerConfig).
	Server ServerConfig

	// Codec names each machine's compression codec ("" = lzrw1).
	Codec string

	// Seed is the fleet's base seed; each machine derives its own PRNG
	// stream from it with SeedFor, so per-machine streams are a function of
	// (Seed, machine ID) alone and adding or removing fleet members never
	// shifts a sibling's stream.
	Seed int64

	// DonationFrames is how many frames each machine pins as fleet memory:
	// capacity siblings can migrate evicted pages into. The frames are
	// allocated up front as kernel-owned (never reclaimed), so donation is a
	// static trade of local memory for fleet memory.
	DonationFrames int

	// Obs attaches an observability bus to every machine (fleet experiments
	// aggregate fault-service histograms across members). Nil disables it.
	Obs *obs.Options
}

// remoteKey names a page fleet-wide: PageKeys are per-machine namespaces, so
// the owner's index disambiguates.
type remoteKey struct {
	owner int
	key   swap.PageKey
}

// remoteEntry is one page held in fleet memory.
type remoteEntry struct {
	it    swap.Item // the page in its travel form; it.Data is the entry's own buffer
	donor int       // sibling machine holding the copy, or -1 = server tier
	addr  int64     // server-tier address when donor == -1
}

// Cluster is a running fleet: the kernel, the machines (actor i is machine
// i), the shared server, and the fleet-memory directory.
type Cluster struct {
	Kernel *sim.Kernel

	cfg      Config
	machines []*machine.Machine
	nets     []*netdev.Net
	server   *Server
	dir      map[remoteKey]*remoteEntry
	free     []*remoteEntry // invalidated entries recycled by newEntry
	donated  []int64        // remaining donation budget per machine, in bytes
	spillSeq int64          // allocator for server-tier spill addresses
}

// newEntry recycles an invalidated directory entry, or allocates one while
// the freelist warms up. Put runs on the paging hot path, so steady-state
// placements must not allocate; the payload buffer grows in place inside
// the recycled entry.
func (c *Cluster) newEntry() *remoteEntry {
	if n := len(c.free); n > 0 {
		ent := c.free[n-1]
		c.free = c.free[:n-1]
		return ent
	}
	return new(remoteEntry)
}

// New assembles a fleet. Every machine is a compression-cache machine paging
// over the link (the paper's diskless scenario), attached to one shared
// kernel and wired to the shared server.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", cfg.Machines)
	}
	if cfg.DonationFrames < 0 {
		return nil, fmt.Errorf("cluster: negative donation budget")
	}
	if cfg.Server == (ServerConfig{}) {
		cfg.Server = DefaultServerConfig()
	}
	c := &Cluster{
		Kernel:  sim.NewKernel(),
		cfg:     cfg,
		server:  NewServer(cfg.Server),
		dir:     make(map[remoteKey]*remoteEntry),
		donated: make([]int64, cfg.Machines),
	}
	for i := 0; i < cfg.Machines; i++ {
		mcfg := machine.Default(cfg.MemoryBytes).WithNetwork(cfg.Link).WithCC()
		if cfg.Codec != "" {
			mcfg.CC.Codec = cfg.Codec
		}
		opts := []machine.Option{
			machine.WithKernel(c.Kernel, sim.ActorID(i)),
			machine.WithRemote(&remoteAdapter{c: c, idx: i}),
		}
		if cfg.Obs != nil {
			opts = append(opts, machine.WithObs(*cfg.Obs))
		}
		m, err := machine.New(mcfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		net, ok := m.Device.(*netdev.Net)
		if !ok {
			return nil, fmt.Errorf("cluster: machine %d is not network-backed", i)
		}
		net.SetRemote(c.server)
		for f := 0; f < cfg.DonationFrames; f++ {
			if _, ok := m.Pool.Alloc(mem.Kernel); !ok {
				return nil, fmt.Errorf("cluster: machine %d cannot donate %d frames", i, cfg.DonationFrames)
			}
		}
		c.donated[i] = int64(cfg.DonationFrames) * int64(mcfg.PageSize)
		c.machines = append(c.machines, m)
		c.nets = append(c.nets, net)
	}
	return c, nil
}

// Size reports the fleet size.
func (c *Cluster) Size() int { return len(c.machines) }

// Machine returns fleet member i.
func (c *Cluster) Machine(i int) *machine.Machine { return c.machines[i] }

// Server returns the shared page server.
func (c *Cluster) Server() *Server { return c.server }

// SeedFor derives machine i's PRNG stream from the fleet seed by machine ID
// (a splitmix64 finalizer), so the stream is stable under fleet-membership
// changes.
func (c *Cluster) SeedFor(i int) int64 {
	z := uint64(c.cfg.Seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Go arms fleet member i with a program (see sim.Kernel.Go); Run dispatches
// all armed programs on the shared timeline. A member can be re-armed after
// Run returns for multi-phase experiments.
func (c *Cluster) Go(i int, fn func(m *machine.Machine)) {
	m := c.machines[i]
	c.Kernel.Go(sim.ActorID(i), func() { fn(m) })
}

// Run dispatches the fleet until every armed program has returned and
// reports the final fleet time.
func (c *Cluster) Run() sim.Time { return c.Kernel.Run() }

// SnapshotCycle serializes the kernel at a phase boundary (between Run
// returning and the next Go — the heap is empty and every program has
// returned) and restores it into a fresh kernel, re-attaching every member's
// clock at its restored instant. Semantically a no-op: a fleet that cycles
// through a snapshot between phases is byte-identical to one that does not —
// the determinism tests exercise exactly that. Mid-Wait snapshots go through
// sim.Kernel.Stop and carry pending events; see the sim package.
func (c *Cluster) SnapshotCycle() error {
	k := sim.NewKernel()
	if err := snap.RoundTrip(c.Kernel.Snap, k.Snap); err != nil {
		return fmt.Errorf("cluster: snapshot cycle: %w", err)
	}
	for i, m := range c.machines {
		k.Attach(m.Clock, sim.ActorID(i))
	}
	c.Kernel = k
	return nil
}

// Err reports the first fatal error of any fleet member, by actor order.
func (c *Cluster) Err() error {
	for i, m := range c.machines {
		if err := m.Err(); err != nil {
			return fmt.Errorf("cluster: machine %d: %w", i, err)
		}
	}
	return nil
}

// CheckInvariants validates every member machine.
func (c *Cluster) CheckInvariants() error {
	for i, m := range c.machines {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("cluster: machine %d: %w", i, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// machine.Tier adapter: fleet memory as seen by one member.

// remoteAdapter gives machine idx its view of fleet memory. All calls run on
// machine idx's actor goroutine; transfer costs are charged through the
// machine's own network device, so they queue on the shared server timeline
// in kernel dispatch order.
type remoteAdapter struct {
	c   *Cluster
	idx int
}

// Put implements machine.Tier: place an evicted page in a sibling's donated
// memory, or spill it to the server's compressed tier. The requester pays the
// network forward either way.
func (r *remoteAdapter) Put(it swap.Item) error {
	c := r.c
	k := remoteKey{owner: r.idx, key: it.Key}
	ent, existed := c.dir[k]
	if existed {
		// Re-offer of a key the fleet already holds: return the old
		// placement's capacity and reuse the entry in place.
		c.release(ent)
	} else {
		ent = c.newEntry()
	}
	donor := c.pickDonor(r.idx, len(it.Data))
	var addr int64 = -1 // pure forward: machine-to-machine migration
	if donor < 0 {
		// No sibling has room: spill into the server's compressed tier at a
		// fresh address in the spill namespace (negative, below the forward
		// sentinel, so it can never collide with file-system extents).
		addr = -(2 + c.spillSeq)
		c.spillSeq++
	}
	if err := c.nets[r.idx].Write(addr, len(it.Data)); err != nil {
		// The transfer failed (fault injection): the placement is void and
		// the machine falls back to its own backing store.
		delete(c.dir, k)
		c.free = append(c.free, ent)
		return err
	}
	buf := append(ent.it.Data[:0], it.Data...)
	ent.it = it
	ent.it.Data = buf
	ent.donor = donor
	ent.addr = addr
	if donor >= 0 {
		c.donated[donor] -= int64(len(buf))
	}
	c.dir[k] = ent
	return nil
}

// Get implements machine.Tier: bring a remotely held page back over the
// network. Sibling copies are forwarded through the server at CPU speed;
// spilled copies read from the server tier (or its disk, on a miss).
func (r *remoteAdapter) Get(key swap.PageKey, _ []byte) ([]byte, bool, uint32, []swap.Item, bool, error) {
	c := r.c
	ent, ok := c.dir[remoteKey{owner: r.idx, key: key}]
	if !ok {
		return nil, false, 0, nil, false, nil
	}
	// ent.addr is the spill address, or -1 for a sibling forward.
	err := c.nets[r.idx].Read(ent.addr, len(ent.it.Data))
	return ent.it.Data, ent.it.Compressed, ent.it.Sum, nil, true, err
}

// Has implements machine.Tier.
func (r *remoteAdapter) Has(key swap.PageKey) bool {
	_, ok := r.c.dir[remoteKey{owner: r.idx, key: key}]
	return ok
}

// Invalidate implements machine.Tier.
func (r *remoteAdapter) Invalidate(key swap.PageKey) {
	c := r.c
	k := remoteKey{owner: r.idx, key: key}
	if ent, ok := c.dir[k]; ok {
		c.release(ent)
		delete(c.dir, k)
		c.free = append(c.free, ent)
	}
}

// release returns an entry's capacity to its holder. The entry itself goes
// back to the freelist only when it leaves the directory (Invalidate); Put's
// replace path reuses it in place.
func (c *Cluster) release(ent *remoteEntry) {
	if ent.donor >= 0 {
		c.donated[ent.donor] += int64(len(ent.it.Data))
	} else {
		c.server.Release(ent.addr)
	}
}

// pickDonor chooses the sibling to host a migrated page: the first machine
// after the requester (cyclically, by actor ID) with enough donation budget
// left. The scan order is a pure function of (requester, budgets), so
// placement is deterministic.
func (c *Cluster) pickDonor(requester, bytes int) int {
	n := len(c.machines)
	for off := 1; off < n; off++ {
		j := (requester + off) % n
		if c.donated[j] >= int64(bytes) {
			return j
		}
	}
	return -1
}
