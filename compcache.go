// Package compcache is a from-scratch reproduction of the system described
// in Fred Douglis, "The Compression Cache: Using On-line Compression to
// Extend Physical Memory", Winter 1993 USENIX Conference.
//
// The compression cache is a level of the memory hierarchy between
// uncompressed virtual-memory pages and the backing store: least-recently
// used pages are compressed (with LZRW1) and retained in a variable-size
// circular buffer of page frames; pages that still do not fit are written to
// the backing store in compressed, fragment-padded, clustered form. Whether
// this wins depends on the ratio of compression speed to I/O speed, the
// compressibility of the data, and the application's access pattern — the
// three axes this package's experiments sweep.
//
// Because the original ran inside the Sprite kernel on a DECstation 5000/200
// and a Go process cannot observe its own paging truthfully, the
// reproduction is built on a deterministic simulated machine with a virtual
// clock: a frame pool, an RZ57-class disk model, a Sprite-like block file
// system, exact-LRU virtual memory, and the compression cache itself.
// Workloads place real bytes in simulated pages, so compression ratios are
// measured, not assumed.
//
// # Quick start
//
//	cfg := compcache.Default(6 << 20).WithCC() // 6 MB of memory, cache on
//	m, err := compcache.New(cfg)
//	if err != nil { ... }
//	heap := m.NewSegment("heap", 24<<20) // a 24 MB address space
//	heap.WriteWord(0, 42)                // touch pages; paging just happens
//	fmt.Println(m.Stats())
//
// The package's examples run the paper's scenarios end to end and check
// what they print: the same loop with and without the cache (quickstart),
// the Figure 3 thrasher sweep, Table 1's best and worst applications
// (filediff, dbindex), the §1 mobile machine and a fleet of them, the
// experiment registry, and the observability layer (WithObs, then
// Machine.Events and Machine.Metrics). Run them with
//
//	go test -run Example -v .
//
// The cmd/ccbench command prints every registered table and figure (-list,
// -run); cmd/ccsim runs one machine and shows its event stream (-events,
// -timeline, -summary).
package compcache

import (
	"compcache/internal/exp"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/workload"
)

// Machines.
type (
	// Config describes a simulated machine; see Default and WithCC.
	Config = machine.Config
	// Machine is a simulated computer running in virtual time.
	Machine = machine.Machine
	// MachineOption attaches a machine to its surroundings at construction
	// time; see WithObs.
	MachineOption = machine.Option
	// NetParams parameterizes a network page server (the diskless mobile
	// scenario of the paper's introduction).
	NetParams = netdev.Params
)

// Default returns the paper's baseline machine configuration (DECstation
// 5000/200-class CPU costs, RZ57 disk, 4-KByte pages) with the given user
// memory and the compression cache disabled.
func Default(memoryBytes int64) Config { return machine.Default(memoryBytes) }

// Wireless2 returns parameters for a ~2-Mbps early-90s wireless LAN, the
// paper's mobile paging scenario.
func Wireless2() NetParams { return netdev.Wireless2() }

// New builds a machine.
func New(cfg Config, opts ...MachineOption) (*Machine, error) { return machine.New(cfg, opts...) }

// Workloads (the paper's §5 applications).
type (
	// Workload is a program that runs against a Machine.
	Workload = workload.Workload
	// Comparison is a baseline-versus-compression-cache measurement pair.
	Comparison = workload.Comparison
	// Thrasher is the §5.1 maximum-improvement probe.
	Thrasher = workload.Thrasher
	// Compare is the dynamic-programming file differencer (2.68x in the paper).
	Compare = workload.Compare
	// Gold is the inverted-index main-memory database; see GoldCreate,
	// GoldCold and GoldWarm.
	Gold = workload.Gold
)

// Gold phases.
const (
	GoldCreate = workload.GoldCreate
	GoldCold   = workload.GoldCold
	GoldWarm   = workload.GoldWarm
)

// RunBoth measures a workload on the baseline and compression-cache
// machines, producing one Table 1-style comparison.
func RunBoth(base, cc Config, w Workload, opts ...MachineOption) (Comparison, error) {
	return workload.RunBoth(base, cc, w, opts...)
}

// Experiments.
type (
	// Fig3Options sizes the Figure 3 sweep.
	Fig3Options = exp.Fig3Options
	// Fig3Result is the §5.1 thrasher sweep (Figure 3).
	Fig3Result = exp.Fig3Result
	// Experiment is one registered, runnable experiment.
	Experiment = exp.Experiment
	// ExperimentOptions is the shared sizing knob set experiments accept.
	ExperimentOptions = exp.Options
)

// SmallScale shrinks experiments for fast runs; cmd/ccbench -scale paper
// uses the paper's sizes.
const SmallScale = exp.Small

// DefaultFig3Options sizes the Figure 3 sweep for a scale.
func DefaultFig3Options(s exp.Scale) Fig3Options { return exp.DefaultFig3Options(s) }

// Fig3 regenerates Figure 3: the thrasher sweep.
func Fig3(opts Fig3Options) (*Fig3Result, error) { return exp.Fig3(opts) }

// Experiments returns every registered experiment in name order: every
// table, figure, ablation and extension study (ccbench -list).
func Experiments() []Experiment { return exp.Experiments() }

// LookupExperiment finds one experiment by exact name ("table1",
// "ablation/codec", ...).
func LookupExperiment(name string) (Experiment, bool) { return exp.Lookup(name) }

// DefaultExperimentOptions returns the options every experiment documents:
// built-in seeds and the full fault-rate ladder.
func DefaultExperimentOptions(s exp.Scale) ExperimentOptions { return exp.DefaultOptions(s) }

// Observability: the deterministic virtual-time event bus and metrics
// registry (see internal/obs).
type (
	// ObsOptions selects event classes and the ring size.
	ObsOptions = obs.Options
	// EventClass is the bitmask of event classes.
	EventClass = obs.Class
)

// WithObs is the machine option that attaches the observability layer.
func WithObs(o ObsOptions) MachineOption { return machine.WithObs(o) }

// ParseEventClasses parses a comma- or pipe-separated list of event-class
// names ("fault,disk_read") into an enable mask; "all" (or empty) selects
// every class.
func ParseEventClasses(s string) (EventClass, error) { return obs.ParseClasses(s) }

// WriteEventsJSONL exports events as deterministic JSONL, one object per
// line in fixed field order — a diffable trace artifact.
var WriteEventsJSONL = obs.WriteEventsJSONL
