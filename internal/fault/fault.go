// Package fault is a deterministic fault injector for the simulated paging
// stack, plus the typed errors the stack reports when a layer misbehaves.
//
// Real memory-compression deployments treat backing-store failures and
// compressed-data integrity as first-class concerns: a transfer can fail, a
// latency spike can stall the device, and a bit flip in a compressed
// fragment corrupts a whole page's worth of data. The injector models all
// three so experiments can measure overhead and survival as a function of
// fault rate.
//
// Determinism contract: every decision the injector makes is derived from an
// explicit seed and the machine's virtual clock — never from the host clock
// or the global math/rand source — and the simulation is single-threaded per
// machine, so the stream of decisions is a pure function of (seed, config,
// workload). Two runs with identical seeds and fault configs are
// byte-identical at any parallelism, faults included.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/stats"
)

// Config describes what to inject and how often. Rates are per-opportunity
// probabilities in [0, 1]: each device read, device write, and fragment
// decompression draws once against its rate. The zero Config injects
// nothing.
type Config struct {
	// Seed drives all injection decisions. Two injectors with the same seed
	// and config make identical decisions at identical points in a run.
	Seed int64

	// ReadErrorRate is the probability a device read fails after being
	// charged its full service time.
	ReadErrorRate float64

	// WriteErrorRate is the probability a device write (synchronous or
	// queued) fails.
	WriteErrorRate float64

	// CacheCorruptionRate is the probability a compressed fragment fetched
	// from the compression cache has one bit flipped before decompression —
	// an in-memory corruption. The checksum catches it and the machine
	// re-fetches the page from the backing store when a clean copy exists.
	CacheCorruptionRate float64

	// SwapCorruptionRate is the probability a compressed fragment read from
	// the backing store has one bit flipped — an on-media corruption. There
	// is no lower level to fall back to, so a hit here is unrecoverable.
	SwapCorruptionRate float64

	// LatencySpikeRate is the probability a device operation pays
	// LatencySpike of extra service time (a stalled bus, a remapped sector,
	// a congested link).
	LatencySpikeRate float64

	// LatencySpike is the extra service time a spike adds. Must be positive
	// when LatencySpikeRate is.
	LatencySpike time.Duration

	// ActiveAfter delays injection until this much virtual time has passed,
	// so a workload's setup phase can run clean. Zero starts immediately.
	ActiveAfter time.Duration

	// ActiveFor bounds the injection window; zero means faults stay active
	// until the run ends.
	ActiveFor time.Duration

	// CrashAtWrite is the crash point: the machine loses power on the k-th
	// device write of the run (1-based; 0 disables), the write is torn at
	// sector granularity (a prefix reaches the media), and every later device
	// operation fails with a *CrashError. This is the exhaustive-sweep knob:
	// iterating k over every write of a workload visits every crash point
	// exactly once. The crash point ignores the activity window.
	CrashAtWrite uint64
}

// CrashConfigured reports whether a crash point is armed. The machine uses
// it to auto-enable the recoverable on-media swap formats: crashing a store
// whose layout cannot be recovered only proves the layout is unrecoverable.
func (c Config) CrashConfigured() bool { return c.CrashAtWrite > 0 }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"ReadErrorRate", c.ReadErrorRate},
		{"WriteErrorRate", c.WriteErrorRate},
		{"CacheCorruptionRate", c.CacheCorruptionRate},
		{"SwapCorruptionRate", c.SwapCorruptionRate},
		{"LatencySpikeRate", c.LatencySpikeRate},
	}
	for _, r := range rates {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %g outside [0,1]", r.name, r.v)
		}
	}
	if c.LatencySpike < 0 {
		return fmt.Errorf("fault: negative LatencySpike %v", c.LatencySpike)
	}
	if c.LatencySpikeRate > 0 && c.LatencySpike == 0 {
		return fmt.Errorf("fault: LatencySpikeRate %g needs a positive LatencySpike", c.LatencySpikeRate)
	}
	if c.ActiveAfter < 0 || c.ActiveFor < 0 {
		return fmt.Errorf("fault: negative activity window (after %v, for %v)", c.ActiveAfter, c.ActiveFor)
	}
	return nil
}

// Injector makes the injection decisions for one machine. A nil *Injector is
// valid and injects nothing, so fault-free hot paths need no branch beyond
// the nil-receiver method call.
//
// Injector is not safe for concurrent use; like the clock it belongs to
// exactly one single-threaded simulated machine.
type Injector struct {
	injectorState
	cfg   Config
	clock *sim.Clock
	rng   *rand.Rand // draws through &src, so re-syncing src re-syncs it
	bus   *obs.Bus
}

// injectorState is the injector's replay state: everything a snapshot
// carries.
type injectorState struct {
	src countingSource // only the draw count is stored; restore replays the seed
	st  stats.Faults   // the Injected* counters; the machine owns the rest

	writeSeq  uint64   // device writes seen (crash-point numbering)
	crashed   bool     // the machine lost power; every device op now fails
	crashTime sim.Time // virtual instant of the crash
}

// countingSource wraps a rand.Source and counts raw Int63 draws. rand.Rand's
// derived methods (Float64, Intn) consume a variable number of raw draws via
// rejection sampling, so replaying the generator exactly — which snapshot/
// restore must do — requires counting at the source, not at the call sites.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.n = 0
	s.src.Seed(seed)
}

// New creates an injector on the given clock.
func New(cfg Config, clock *sim.Clock) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg, clock: clock}
	in.src.src = rand.NewSource(cfg.Seed)
	in.rng = rand.New(&in.src)
	return in, nil
}

// SetObserver wires the injector to a machine's event bus; nil disables
// emission. Emission never consumes randomness, so a traced run makes the
// same injection decisions as an untraced one.
func (in *Injector) SetObserver(b *obs.Bus) {
	if in != nil {
		in.bus = b
	}
}

// emit records one fired injection decision.
func (in *Injector) emit(kind int64) {
	if in.bus.Enabled(obs.ClassInject) {
		in.bus.Emit(obs.Event{
			T: in.clock.Now(), Class: obs.ClassInject, Sub: obs.SubFault, Aux: kind,
		})
	}
}

// Stats returns the injected-fault counters. The detection and recovery
// counters of stats.Faults are owned by the machine, not the injector.
func (in *Injector) Stats() stats.Faults {
	if in == nil {
		return stats.Faults{}
	}
	return in.st
}

// active reports whether the virtual clock is inside the injection window.
func (in *Injector) active() bool {
	now := time.Duration(in.clock.Now())
	if now < in.cfg.ActiveAfter {
		return false
	}
	return in.cfg.ActiveFor == 0 || now <= in.cfg.ActiveAfter+in.cfg.ActiveFor
}

// draw makes one rate decision. It consumes randomness only when the rate
// can fire, so enabling one fault class does not perturb the others.
func (in *Injector) draw(rate float64) bool {
	if in == nil || rate <= 0 || !in.active() {
		return false
	}
	return in.rng.Float64() < rate
}

// DiskRead decides whether the device read that just completed fails. It
// returns a *DeviceError or nil; after a crash it returns the sticky
// *CrashError (a dead machine's device answers nothing).
func (in *Injector) DiskRead() error {
	if in == nil {
		return nil
	}
	if in.crashed {
		return &CrashError{Op: "read", At: in.crashTime}
	}
	if !in.draw(in.cfg.ReadErrorRate) {
		return nil
	}
	in.st.InjectedReadErrors++
	in.emit(obs.InjectReadError)
	return &DeviceError{Op: "read", At: in.clock.Now()}
}

// DiskWrite decides whether the device write that just completed fails.
func (in *Injector) DiskWrite() error {
	if in == nil {
		return nil
	}
	if in.crashed {
		return &CrashError{Op: "write", At: in.crashTime}
	}
	if !in.draw(in.cfg.WriteErrorRate) {
		return nil
	}
	in.st.InjectedWriteErrors++
	in.emit(obs.InjectWriteError)
	return &DeviceError{Op: "write", At: in.clock.Now()}
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool { return in != nil && in.crashed }

// CrashWrite is the crash-point decision, made once per device write before
// the write's own error draw: it fires on write Config.CrashAtWrite. When
// the crash fires, the in-flight write is torn: a whole-sector prefix of
// Survived bytes reaches the media (possibly none, possibly all n), the
// injector goes sticky-crashed, and the returned *CrashError reports the
// tear so the file system can apply exactly that prefix. sectorSize is the
// device's addressing granularity — a disk sector, a network packet. Only
// the tear consumes randomness, so crash-capable runs are byte-identical to
// plain ones right up to the crash point.
func (in *Injector) CrashWrite(n, sectorSize int) error {
	if in == nil {
		return nil
	}
	if in.crashed {
		return &CrashError{Op: "write", At: in.crashTime}
	}
	if !in.cfg.CrashConfigured() {
		return nil
	}
	if in.writeSeq++; in.writeSeq != in.cfg.CrashAtWrite {
		return nil
	}
	sectors := 0
	if sectorSize > 0 {
		sectors = n / sectorSize
	}
	survived := 0
	if sectors > 0 {
		survived = in.rng.Intn(sectors+1) * sectorSize
	}
	if survived > n {
		survived = n
	}
	in.crashed = true
	in.crashTime = in.clock.Now()
	in.st.InjectedCrashes++
	in.emit(obs.InjectCrash)
	return &CrashError{Op: "write", At: in.crashTime, Survived: survived}
}

// Latency reports the extra service time the current device operation pays
// (zero in the common case).
func (in *Injector) Latency() time.Duration {
	if in == nil || !in.draw(in.cfg.LatencySpikeRate) {
		return 0
	}
	in.st.InjectedSpikes++
	in.emit(obs.InjectLatencySpike)
	return in.cfg.LatencySpike
}

// CorruptCache flips one deterministically chosen bit of a compressed
// fragment about to be decompressed out of the compression cache, reporting
// whether it did. The caller's checksum verification is expected to catch
// the flip.
func (in *Injector) CorruptCache(frag []byte) bool {
	if in == nil {
		return false
	}
	return in.corrupt(in.cfg.CacheCorruptionRate, frag, obs.InjectCacheCorruption)
}

// CorruptSwap flips one bit of a compressed fragment just read from the
// backing store.
func (in *Injector) CorruptSwap(frag []byte) bool {
	if in == nil {
		return false
	}
	return in.corrupt(in.cfg.SwapCorruptionRate, frag, obs.InjectSwapCorruption)
}

func (in *Injector) corrupt(rate float64, frag []byte, kind int64) bool {
	if len(frag) == 0 || !in.draw(rate) {
		return false
	}
	bit := in.rng.Intn(len(frag) * 8)
	frag[bit>>3] ^= 1 << (bit & 7)
	in.st.InjectedCorruptions++
	in.emit(kind)
	return true
}

// ---------------------------------------------------------------------------
// Typed errors. Layers report these instead of panicking, so a single bad
// page or transfer degrades one run instead of crashing the whole sweep.

// DeviceError is an injected backing-store transfer failure.
type DeviceError struct {
	Op string   // "read" or "write"
	At sim.Time // virtual instant the failure surfaced
}

// Error implements error.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("fault: injected device %s error at %v", e.Op, e.At)
}

// CrashError is a power cut. The first one (Op "write") carries the tear:
// Survived bytes of the in-flight write — a whole-sector prefix — reached
// the media before power was lost. Every device operation after the crash
// returns a CrashError with Survived 0 and the At of the original cut, so
// the machine grinds to a sticky halt instead of quietly writing to a dead
// device.
type CrashError struct {
	Op       string   // operation that observed the crash
	At       sim.Time // virtual instant power was lost
	Survived int      // bytes of the torn write that reached the media
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: machine crashed at %v (device %s; %d bytes of the in-flight write survived)",
		e.At, e.Op, e.Survived)
}

// IsCrash reports whether err contains a CrashError — the "this machine lost
// power, recover it from its media image" signal the crash-sweep harness
// tests for.
func IsCrash(err error) bool {
	var ce *CrashError
	return errors.As(err, &ce)
}

// CorruptionError is a compressed fragment that failed integrity
// verification: its checksum did not match, the codec rejected it, or it
// decompressed to the wrong length.
type CorruptionError struct {
	Page   string // the page key, already formatted
	Reason string // what the verification found
	Err    error  // underlying codec error, when there is one
}

// Error implements error.
func (e *CorruptionError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fault: corrupt fragment for page %s: %s: %v", e.Page, e.Reason, e.Err)
	}
	return fmt.Sprintf("fault: corrupt fragment for page %s: %s", e.Page, e.Reason)
}

// Unwrap exposes the codec error for errors.Is/As.
func (e *CorruptionError) Unwrap() error { return e.Err }

// UnrecoverableError means the paging stack could not reconstruct a page's
// contents from any level of the hierarchy: the data is gone and the run
// (the simulated process) cannot continue. It is the typed replacement for
// what used to be a panic.
type UnrecoverableError struct {
	Page   string // the page key, already formatted
	Reason string // why no fallback existed
	Err    error  // the failure that triggered the loss, when there is one
}

// Error implements error.
func (e *UnrecoverableError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fault: page %s unrecoverable (%s): %v", e.Page, e.Reason, e.Err)
	}
	return fmt.Sprintf("fault: page %s unrecoverable (%s)", e.Page, e.Reason)
}

// Unwrap exposes the triggering failure for errors.Is/As.
func (e *UnrecoverableError) Unwrap() error { return e.Err }

// IsUnrecoverable reports whether err contains an UnrecoverableError — the
// "this run died, siblings may continue" signal experiment harnesses test
// for.
func IsUnrecoverable(err error) bool {
	var ue *UnrecoverableError
	return errors.As(err, &ue)
}
