// Package stats collects the counters every layer of the simulated machine
// reports: fault counts, compression outcomes, disk traffic, and the derived
// quantities the paper's tables use (compression ratio, fraction of
// uncompressible pages, average page access time).
package stats

import (
	"fmt"
	"strings"
	"time"

	"compcache/internal/obs"
)

// VM aggregates virtual-memory events.
type VM struct {
	Refs        uint64 // simulated memory references issued by the workload
	Faults      uint64 // page faults taken (page not resident uncompressed)
	ColdFaults  uint64 // faults on never-before-touched pages
	CacheHits   uint64 // faults satisfied from the compression cache
	SwapIns     uint64 // faults that required reading the backing store
	RemoteIns   uint64 // faults satisfied by remote fleet memory (cluster runs)
	Evictions   uint64 // resident pages evicted to make room
	WriteBacks  uint64 // dirty pages pushed out of uncompressed memory
	PinnedSkips uint64 // evictions skipped because the page was pinned
}

// Compression aggregates codec activity.
type Compression struct {
	Compressions    uint64 // pages compressed
	Decompressions  uint64 // pages decompressed
	BytesIn         uint64 // uncompressed bytes fed to the codec
	BytesOut        uint64 // compressed bytes produced (successful only)
	Incompressible  uint64 // pages whose ratio missed the retention threshold
	CompressibleIn  uint64 // uncompressed bytes of pages that met the threshold
	CompressibleOut uint64 // compressed bytes of pages that met the threshold
}

// Ratio reports the overall compression ratio achieved on pages that met the
// retention threshold, expressed as the paper expresses it: the fraction of
// bytes remaining after compression (smaller is better; 0.25 means 4:1).
// It reports 1 if nothing compressed.
func (c Compression) Ratio() float64 {
	if c.CompressibleIn == 0 {
		return 1
	}
	return float64(c.CompressibleOut) / float64(c.CompressibleIn)
}

// UncompressibleFrac reports the fraction of compression attempts that
// failed the retention threshold (Table 1's "Uncompressible pages (%)").
func (c Compression) UncompressibleFrac() float64 {
	if c.Compressions == 0 {
		return 0
	}
	return float64(c.Incompressible) / float64(c.Compressions)
}

// Disk aggregates backing-store traffic.
type Disk struct {
	Reads        uint64 // read operations issued to the device
	Writes       uint64 // write operations issued to the device
	BytesRead    uint64
	BytesWritten uint64
	Seeks        uint64        // operations that paid a seek
	BusyTime     time.Duration // total device busy time
	Retries      uint64        // failed transfers retried (network page server)
}

// Faults aggregates injected faults and the paging stack's response to them.
// The Injected* counters come from the fault injector; the detection and
// recovery counters come from the machine's integrity checks.
type Faults struct {
	InjectedReadErrors  uint64 // device reads failed by the injector
	InjectedWriteErrors uint64 // device writes failed by the injector
	InjectedCorruptions uint64 // compressed fragments with a flipped bit
	InjectedSpikes      uint64 // operations that paid an injected latency spike
	CorruptionsDetected uint64 // fragment checksum/codec verification failures
	Recoveries          uint64 // corrupt fragments recovered from a lower level
	InjectedCrashes     uint64 // power cuts injected mid device write
	RecoveredSegments   uint64 // durable segments/commit records accepted at mount
	TornWritesDiscarded uint64 // checksum-failed records discarded by recovery
}

// Any reports whether any fault activity was recorded.
func (f Faults) Any() bool { return f != Faults{} }

// CC aggregates compression-cache events.
type CC struct {
	Inserts      uint64 // pages placed into the cache
	Hits         uint64 // lookups satisfied by the cache
	Misses       uint64 // lookups that fell through to the backing store
	CleanWrites  uint64 // dirty compressed pages persisted by the cleaner
	FrameGrows   uint64 // physical frames added to the cache
	FrameShrinks uint64 // physical frames reclaimed from the cache
	Dropped      uint64 // clean entries discarded without I/O
	MidReclaims  uint64 // frames reclaimed from the middle of the ring
}

// HitRate reports the fraction of compression-cache lookups that hit.
func (c CC) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Swap aggregates backing-store bookkeeping above the raw device.
type Swap struct {
	PagesOut      uint64 // logical pages written to the backing store
	PagesIn       uint64 // logical pages read from the backing store
	FragsLive     uint64 // current live fragments (clustered store only)
	FragsFree     uint64 // current free (dead) fragments
	GCs           uint64 // garbage-collection passes
	GCBytesCopied uint64 // live bytes moved by GC
}

// Run is the full stats block one simulation produces, organized as nested
// per-subsystem views: Stats().VM, .CC, .Swap, .Disk, .Faults.
type Run struct {
	VM     VM
	Comp   Compression
	Disk   Disk
	CC     CC
	Swap   Swap
	Faults Faults

	Time time.Duration // virtual execution time of the workload

	// Extra is always nil and nothing reads it. It stays because the
	// benchmark's golden digests hash Run's JSON form, "Extra":null
	// included; it goes when those digests are next regenerated.
	Extra map[string]float64

	// Metrics is the machine's obs-registry snapshot (counters, gauges,
	// virtual-latency histograms), nil when the machine ran without an
	// observability bus. It is deterministic — sorted by name with fixed
	// buckets — so DeepEqual comparisons between runs remain valid.
	Metrics *obs.Snapshot
}

// AvgAccess reports the mean virtual time per simulated memory reference,
// the y-axis of Figure 3(a).
func (r Run) AvgAccess() time.Duration {
	if r.VM.Refs == 0 {
		return 0
	}
	return r.Time / time.Duration(r.VM.Refs)
}

// String renders the block in a compact human-readable layout used by
// cmd/ccsim.
func (r Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time            %v\n", r.Time)
	fmt.Fprintf(&b, "refs            %d (avg %v/ref)\n", r.VM.Refs, r.AvgAccess())
	fmt.Fprintf(&b, "faults          %d (cold %d, cc-hit %d, swap-in %d)\n",
		r.VM.Faults, r.VM.ColdFaults, r.VM.CacheHits, r.VM.SwapIns)
	fmt.Fprintf(&b, "evictions       %d (writebacks %d)\n", r.VM.Evictions, r.VM.WriteBacks)
	fmt.Fprintf(&b, "compressions    %d (ratio %.2f, uncompressible %.1f%%)\n",
		r.Comp.Compressions, r.Comp.Ratio(), 100*r.Comp.UncompressibleFrac())
	fmt.Fprintf(&b, "decompressions  %d\n", r.Comp.Decompressions)
	fmt.Fprintf(&b, "cc              inserts %d hits %d misses %d (hit rate %.1f%%)\n",
		r.CC.Inserts, r.CC.Hits, r.CC.Misses, 100*r.CC.HitRate())
	fmt.Fprintf(&b, "disk            %d reads / %d writes, %s in / %s out, busy %v\n",
		r.Disk.Reads, r.Disk.Writes, bytesStr(r.Disk.BytesRead), bytesStr(r.Disk.BytesWritten), r.Disk.BusyTime)
	fmt.Fprintf(&b, "swap            %d pages out / %d pages in, %d GCs\n",
		r.Swap.PagesOut, r.Swap.PagesIn, r.Swap.GCs)
	if r.Faults.Any() {
		fmt.Fprintf(&b, "faults-injected %d read-err %d write-err %d corrupt %d spikes (detected %d, recovered %d)\n",
			r.Faults.InjectedReadErrors, r.Faults.InjectedWriteErrors, r.Faults.InjectedCorruptions,
			r.Faults.InjectedSpikes, r.Faults.CorruptionsDetected, r.Faults.Recoveries)
	}
	if r.Faults.InjectedCrashes > 0 || r.Faults.RecoveredSegments > 0 || r.Faults.TornWritesDiscarded > 0 {
		fmt.Fprintf(&b, "crash           %d injected, %d segments recovered, %d torn writes discarded\n",
			r.Faults.InjectedCrashes, r.Faults.RecoveredSegments, r.Faults.TornWritesDiscarded)
	}
	return b.String()
}

func bytesStr(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
