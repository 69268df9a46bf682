// Package machine assembles the simulated computer: clock, frame pool, disk,
// file system, backing stores, virtual memory, replacement policy and — when
// enabled — the compression cache. It implements the paging policy that glues
// the pieces together, which is where the paper's design decisions live:
// compress-on-eviction with the 4:3 retention threshold, fault service from
// the cache before the backing store, clustered cleaning, and neighbor
// prefetch from clustered reads.
package machine

import (
	"cmp"
	"fmt"
	"math"

	"compcache/internal/core"
	"compcache/internal/disk"
	"compcache/internal/fault"
	"compcache/internal/fs"
	"compcache/internal/netdev"
	"compcache/internal/policy"
	"compcache/internal/sim"
	"compcache/internal/swap"
)

// CCConfig configures the compression cache. The cache's geometry is the
// paper's (core.DefaultParams: 24-byte frame headers, 36-byte entry headers,
// 32-KByte clean batches); what varies per machine is below.
type CCConfig struct {
	// Enabled turns the compression cache on. When false the machine is the
	// unmodified baseline system: dirty evictions go straight to a direct
	// (page-per-block) swap file.
	Enabled bool

	// Codec names the registered compression codec; default "lzrw1".
	Codec string

	// KeepNum/KeepDen define the retention threshold as a ratio of the page
	// size: a compressed page is kept only if its size is at most
	// PageSize*KeepNum/KeepDen. The paper keeps pages that compress better
	// than 4:3, i.e. to at most 3/4 of the page: KeepNum=3, KeepDen=4.
	KeepNum, KeepDen int

	// MaxFrames caps the cache's physical size (0 = policy-limited only).
	MaxFrames int

	// FixedFrames, when positive, reproduces the paper's original
	// fixed-size compression cache (§4.2's rejected first design): the
	// cache is pre-grown to exactly this many frames and never shrinks or
	// grows; it overrides MaxFrames. Used by the ablation study.
	FixedFrames int

	// CleanReserve is the number of free-or-reclaimable frames the cleaner
	// tries to keep ahead of demand. 0 selects a default proportional to
	// memory size.
	CleanReserve int

	// FileCache extends the compression cache to evicted file-buffer-cache
	// blocks, §6's "one might consider ... keep[ing] part or all of the
	// file buffer cache in compressed format in order to improve the cache
	// hit rate". Requires Enabled.
	FileCache bool

	// RefreshOnFault switches the cache from the paper's FIFO entry aging
	// to LRU-like aging (a fault refreshes the entry's age). See
	// core.Params.RefreshOnFault for the trade-off.
	RefreshOnFault bool
}

// Config describes a simulated machine.
type Config struct {
	// PageSize is the VM page size; the paper's DECstations use 4 KBytes.
	PageSize int

	// MemoryBytes is the physical memory available to user pages (VM pages,
	// file cache and compression cache combined). The paper runs Figure 3
	// with ~6 MBytes and Table 1 with ~14 MBytes.
	MemoryBytes int64

	// Cost is the CPU cost model.
	Cost sim.CostModel

	// Disk parameterizes the backing-store device.
	Disk disk.Params

	// Net, when non-nil, replaces the disk with a network page server (the
	// paper's diskless mobile scenario): all backing-store traffic crosses
	// the modelled link instead of a local disk.
	Net *netdev.Params

	// FS configures the file system (block size defaults to PageSize).
	FS fs.Options

	// Swap configures the clustered backing store used when the compression
	// cache is enabled. Its PageSize, if set, must equal PageSize.
	Swap swap.ClusterConfig

	// LFSSwap, when non-nil, replaces the baseline machine's direct
	// (page-per-block) swap with a log-structured store — the "paging into
	// Sprite LFS" alternative §5.1 discusses. New refuses it on a
	// compression-cache machine (the cache brings its own clustered store),
	// and refuses a PageSize other than 0 or PageSize.
	LFSSwap *swap.LFSConfig

	// CC configures the compression cache.
	CC CCConfig

	// Faults, when non-nil, attaches a deterministic fault injector to the
	// machine: device errors, latency spikes, and compressed-fragment
	// corruption per the rates in the config. Nil injects nothing and adds
	// no overhead.
	Faults *fault.Config

	// Biases configures the three-way memory trade. A consumer whose bias
	// is zero takes its policy.DefaultBiases entry.
	Biases policy.Biases
}

// Default returns the paper's baseline configuration: a DECstation-class
// cost model, an RZ57 disk, 4-KByte pages and the given user memory, with
// the compression cache disabled.
func Default(memoryBytes int64) Config {
	return Config{
		PageSize:    4096,
		MemoryBytes: memoryBytes,
		Cost:        sim.DefaultCostModel(),
		Disk:        disk.RZ57(),
	}
}

// WithNetwork returns a copy of the configuration paging over the given
// network instead of a local disk.
func (c Config) WithNetwork(p netdev.Params) Config {
	c.Net = &p
	return c
}

// WithLFS returns a copy of the configuration whose baseline machine pages
// into a log-structured backing store.
func (c Config) WithLFS(cfg swap.LFSConfig) Config {
	c.LFSSwap = &cfg
	return c
}

// WithCC returns a copy of the configuration with the compression cache
// enabled using the paper's parameters (LZRW1, 4:3 threshold, 1-KByte
// fragments, 32-KByte clusters).
func (c Config) WithCC() Config {
	c.CC.Enabled = true
	return c
}

// PageSizeError reports a Config.PageSize the machine cannot be built with.
// The VM splits byte offsets into page and offset by shift and mask, so the
// size must be a power of two; 512, one disk sector, is the smallest, and
// 64 KBytes, all the positions LZRW1's 16-bit hash table holds, the largest.
type PageSizeError struct{ Size int }

func (e *PageSizeError) Error() string {
	return fmt.Sprintf("machine: bad page size %d (need a power of two from 512 to %d)", e.Size, maxPageSize)
}

// maxPageSize is the largest page a machine is built with.
const maxPageSize = 1 << 16

// MemorySizeError reports a Config.MemoryBytes the machine cannot be built
// with: fewer than 8 pages, or more than a mem.FrameID can name.
type MemorySizeError struct {
	Bytes    int64
	PageSize int
}

func (e *MemorySizeError) Error() string {
	return fmt.Sprintf("machine: memory of %d bytes is %d pages of %d bytes (need 8 to %d)",
		e.Bytes, e.Bytes/int64(e.PageSize), e.PageSize, math.MaxInt32)
}

func (c *Config) setDefaults() error {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PageSize < 512 || c.PageSize > maxPageSize || c.PageSize&(c.PageSize-1) != 0 {
		return &PageSizeError{Size: c.PageSize}
	}
	if pages := c.MemoryBytes / int64(c.PageSize); pages < 8 || pages > math.MaxInt32 {
		return &MemorySizeError{Bytes: c.MemoryBytes, PageSize: c.PageSize}
	}
	if c.Cost == (sim.CostModel{}) {
		c.Cost = sim.DefaultCostModel()
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.Disk.BytesPerSec == 0 {
		c.Disk = disk.RZ57()
	}
	if c.FS.BlockSize == 0 {
		c.FS.BlockSize = c.PageSize
	}
	if c.Swap.PageSize == 0 {
		c.Swap.PageSize = c.PageSize
	}
	if c.Swap.PageSize != c.PageSize {
		return fmt.Errorf("machine: Swap.PageSize %d differs from PageSize %d", c.Swap.PageSize, c.PageSize)
	}
	if c.LFSSwap != nil {
		if c.CC.Enabled {
			return fmt.Errorf("machine: LFSSwap replaces the baseline's swap; a compression-cache machine pages into its clustered store")
		}
		if ps := c.LFSSwap.PageSize; ps != 0 && ps != c.PageSize {
			return fmt.Errorf("machine: LFSSwap.PageSize %d differs from PageSize %d", ps, c.PageSize)
		}
	}
	if c.CC.Codec == "" {
		c.CC.Codec = "lzrw1"
	}
	if c.CC.KeepNum == 0 || c.CC.KeepDen == 0 {
		c.CC.KeepNum, c.CC.KeepDen = 3, 4
	}
	if c.CC.KeepNum < 0 || c.CC.KeepDen <= 0 || c.CC.KeepNum > c.CC.KeepDen {
		return fmt.Errorf("machine: bad retention threshold %d/%d", c.CC.KeepNum, c.CC.KeepDen)
	}
	if c.CC.FileCache {
		if !c.CC.Enabled {
			return fmt.Errorf("machine: CC.FileCache requires CC.Enabled")
		}
		if c.FS.BlockSize != c.PageSize {
			return fmt.Errorf("machine: CC.FileCache needs BlockSize == PageSize (got %d vs %d)",
				c.FS.BlockSize, c.PageSize)
		}
	}
	frames := int(c.MemoryBytes / int64(c.PageSize))
	if c.CC.CleanReserve == 0 {
		c.CC.CleanReserve = max(4, frames/64)
	}
	// A consumer left zero keeps the paper's bias rather than turning neutral.
	def := policy.DefaultBiases()
	c.Biases.VM = cmp.Or(c.Biases.VM, def.VM)
	c.Biases.FS = cmp.Or(c.Biases.FS, def.FS)
	c.Biases.CC = cmp.Or(c.Biases.CC, def.CC)
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if c.Faults.CrashConfigured() {
			// Crashing a store whose media layout cannot be recovered only
			// proves the layout is unrecoverable, so arm the recoverable
			// formats. The LFS config is copied before mutation — Config is
			// passed by value but LFSSwap is a pointer the caller may share.
			c.Swap.CommitRecords = true
			if c.LFSSwap != nil && !c.LFSSwap.Durable {
				lfsCfg := *c.LFSSwap
				lfsCfg.Durable = true
				c.LFSSwap = &lfsCfg
			}
		}
	}
	return nil
}

// WithFaults returns a copy of the configuration with the fault injector
// attached.
func (c Config) WithFaults(f fault.Config) Config {
	c.Faults = &f
	return c
}

// keepThreshold is the largest compressed size retained, in bytes.
func (c *Config) keepThreshold() int {
	return c.PageSize * c.CC.KeepNum / c.CC.KeepDen
}

// coreParams is the compression cache's configuration: the paper's geometry
// with this machine's size limits and aging.
func (c *Config) coreParams() core.Params {
	p := core.DefaultParams()
	p.MaxFrames, p.RefreshOnFault = c.CC.MaxFrames, c.CC.RefreshOnFault
	if c.CC.FixedFrames > 0 {
		p.MaxFrames, p.MinFrames = c.CC.FixedFrames, c.CC.FixedFrames
	}
	return p
}
