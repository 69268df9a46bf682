// Package obs is the deterministic observability layer of the simulated
// machine: a virtual-time event bus plus a metrics registry.
//
// Every simulated subsystem (vm, core, machine, swap, disk, netdev, fault)
// emits typed events — fault-in, compression-cache insert/evict/hit, cluster
// flush, cleaner pass, device op completion, injected fault, recovery —
// stamped only with the machine's virtual clock, never the host clock.
// Alongside the event stream, a registry collects counters, gauges and
// fixed-bucket virtual-latency histograms (fault service time, compression
// time per page, device queue wait).
//
// Determinism is a hard contract, identical to the one the experiment
// harness makes: a machine's event stream and every histogram are pure
// functions of (config, workload, seed). Because each machine is
// single-threaded on its own virtual clock, traces are byte-identical at any
// experiment parallelism, making a JSONL trace a diffable artifact of an
// experiment configuration.
//
// Overhead is budgeted at a few host nanoseconds when disabled: a nil *Bus
// is valid and every probe is one nil/mask test away from a no-op, so the
// default (untraced) machine pays one predictable branch per probe site and
// allocates nothing.
package obs

import (
	"fmt"
	"strings"
	"time"

	"compcache/internal/sim"
)

// Class identifies one event type. Classes are bits so a Bus can enable any
// subset; a zero mask in Options selects all classes, and ClassNone none.
type Class uint32

// Event classes, one bit each.
const (
	// ClassFault is a serviced page fault (vm). Aux holds the fault source
	// (0 zero-fill, 1 compression cache, 2 backing store), Dur the full
	// service time including any device wait.
	ClassFault Class = 1 << iota
	// ClassEvict is a page leaving uncompressed memory (vm). Aux is 1 for a
	// dirty write-back, 0 for a clean discard.
	ClassEvict
	// ClassCCInsert is a page entering the compression cache (core). Bytes
	// is the compressed size, Aux is 1 when the entry is dirty.
	ClassCCInsert
	// ClassCCHit is a fault satisfied by the compression cache (core).
	ClassCCHit
	// ClassCCMiss is a cache lookup that fell through to the backing store
	// (core).
	ClassCCMiss
	// ClassCCEvict is a cache entry leaving the live index (core). Aux is 0
	// for an explicit drop (stale copy invalidated), 1 for a reclaim of a
	// clean entry during frame release.
	ClassCCEvict
	// ClassCleanPass is one cleaner pass that flushed dirty entries (core).
	// Aux is the number of entries cleaned, Bytes their total footprint.
	ClassCleanPass
	// ClassFlush is one clustered write to the backing store (swap). Bytes
	// is the cluster size on the store, Aux the number of pages in it.
	ClassFlush
	// ClassSwapGC is one compaction pass of the clustered store (swap). Bytes
	// is the live data copied.
	ClassSwapGC
	// ClassDiskRead is a completed device read (disk or netdev). Dur is the
	// service time, Bytes the transfer size, Aux the queue wait in
	// nanoseconds of virtual time.
	ClassDiskRead
	// ClassDiskWrite is a completed device write, synchronous or queued
	// (disk or netdev). Fields as for ClassDiskRead.
	ClassDiskWrite
	// ClassRetry is a failed network transfer being reissued (netdev). Aux
	// is the attempt number, Dur the backoff charged before the retry.
	ClassRetry
	// ClassInject is a fault-injector decision that fired (fault). Aux is
	// the injected kind: 1 read error, 2 write error, 3 cache corruption,
	// 4 swap corruption, 5 latency spike, 6 crash (power cut mid-write).
	ClassInject
	// ClassRecovery is a recovery action: a corrupt fragment re-fetched from
	// a lower level of the hierarchy (machine), or one log segment / cluster
	// commit record revalidated during mount-time crash recovery (swap). For
	// mount-time events Aux is the number of page copies recovered and Bytes
	// their total size.
	ClassRecovery

	classCount = 14
)

// ClassAll enables every event class.
const ClassAll Class = 1<<classCount - 1

// ClassNone enables no event class. It is a bit no class uses, because the
// zero mask in Options already means every class.
const ClassNone Class = 1 << classCount

// classNames maps each class bit (by index) to its wire name; the names are
// what the exporters and the enable-mask parser use.
var classNames = [classCount]string{
	"fault", "evict", "cc_insert", "cc_hit", "cc_miss", "cc_evict",
	"clean_pass", "flush", "swap_gc", "disk_read", "disk_write",
	"retry", "inject", "recovery",
}

// String names a single class ("fault"); multi-bit masks render as
// "class|class".
func (c Class) String() string {
	out := ""
	for i := 0; i < classCount; i++ {
		if c&(1<<i) == 0 {
			continue
		}
		if out != "" {
			out += "|"
		}
		out += classNames[i]
	}
	if out == "" {
		return "none"
	}
	return out
}

// ParseClasses parses a comma- or pipe-separated list of wire names
// ("fault,disk_read") into an enable mask. "all" and the empty string select
// every class; "none" selects nothing (ClassNone, unless a class is named
// beside it).
func ParseClasses(s string) (Class, error) {
	split := func(r rune) bool { return r == ',' || r == '|' }
	var mask Class
	for _, name := range strings.FieldsFunc(s, split) {
		name = strings.TrimSpace(name)
		switch name {
		case "", "none":
		case "all":
			mask = ClassAll
		default:
			bit := -1
			for i, n := range classNames {
				if n == name {
					bit = i
					break
				}
			}
			if bit < 0 {
				return 0, fmt.Errorf("obs: unknown event class %q (valid: all, none, %s)",
					name, strings.Join(classNames[:], ", "))
			}
			mask |= 1 << bit
		}
	}
	if s == "" || strings.TrimFunc(s, split) == "" {
		return ClassAll, nil
	}
	if mask == 0 {
		return ClassNone, nil
	}
	return mask, nil
}

// Subsystem identifies the layer an event came from.
type Subsystem uint8

// Subsystems, in hierarchy order.
const (
	SubVM Subsystem = iota
	SubCore
	SubMachine
	SubSwap
	SubDisk
	SubNet
	SubFault

	subsystemCount
)

var subsystemNames = [subsystemCount]string{
	"vm", "core", "machine", "swap", "disk", "netdev", "fault",
}

// String names the subsystem ("vm", "core", ...).
func (s Subsystem) String() string {
	if int(s) < len(subsystemNames) {
		return subsystemNames[s]
	}
	return "unknown"
}

// Event is one typed observation. T is the only timestamp and comes from the
// machine's virtual clock; an Event never carries host time, so two runs of
// the same seeded experiment produce identical streams.
type Event struct {
	T     sim.Time      // virtual instant the event completed
	Class Class         // exactly one class bit
	Sub   Subsystem     // emitting subsystem
	Seg   int32         // page identity when applicable (else 0)
	Page  int32         // page identity when applicable (else 0)
	Bytes int64         // payload size when applicable (else 0)
	Dur   time.Duration // virtual duration when applicable (else 0)
	Aux   int64         // class-specific detail; see the class doc comments
}

// Fault sources recorded in ClassFault's Aux field.
const (
	FaultSrcZero   int64 = iota // zero-filled cold fault
	FaultSrcCC                  // decompressed from the compression cache
	FaultSrcSwap                // read from the backing store
	FaultSrcRemote              // fetched from remote fleet memory
)

// Injected-fault kinds recorded in ClassInject's Aux field.
const (
	InjectReadError int64 = 1 + iota
	InjectWriteError
	InjectCacheCorruption
	InjectSwapCorruption
	InjectLatencySpike
	InjectCrash
)

// Options configures a Bus.
type Options struct {
	// Classes is the enable mask; 0 selects every class, ClassNone none.
	Classes Class

	// RingSize bounds the retained event window; 0 selects DefaultRingSize.
	// When more events are emitted than the ring holds, the oldest are
	// dropped (and counted); the retained window is still deterministic.
	RingSize int
}

// DefaultRingSize is the event window retained when Options.RingSize is 0.
const DefaultRingSize = 1 << 16
