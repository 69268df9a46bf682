// Package policy implements the three-way memory trade of §4.2.
//
// Sprite traded physical memory dynamically between the virtual-memory
// system and the file system's buffer cache by comparing the ages of their
// least-recently-used items and reclaiming the older, "modulo an adjustment
// to favor retaining VM pages longer". With the compression cache there are
// three consumers, and "allocation of each of the three types of memory
// requires a comparison of the ages of the oldest pages for all three
// types"; the system "biases the ages to favor compressed pages over
// uncompressed pages and both of these over file cache blocks".
//
// An Allocator holds the shared frame pool and the registered consumers.
// When a frame is requested and the pool is empty, the allocator computes
// each consumer's effective age
//
//	effective = (now - oldestLastUse) * scale + bias
//
// and asks the consumer with the greatest effective age to release its
// oldest item, repeating until a frame is free. A larger scale or bias makes
// a consumer's memory look staler, so it is reclaimed sooner; the paper's
// preference order (file cache reclaimed first, compressed pages last) is
// the default Biases configuration.
package policy

import (
	"errors"
	"fmt"
	"time"

	"compcache/internal/mem"
	"compcache/internal/sim"
)

// ErrOutOfMemory reports that no registered consumer could free a frame — a
// true out-of-memory, which in a correctly sized simulation indicates a
// configuration or sizing bug rather than a runtime fault.
var ErrOutOfMemory = errors.New("policy: out of memory")

// Consumer is a subsystem holding page frames that the allocator can ask to
// give one back.
type Consumer interface {
	// Name identifies the consumer in diagnostics.
	Name() string

	// OldestAge reports the reference timestamp of the consumer's
	// least-recently-used item. ok is false when the consumer holds nothing
	// reclaimable.
	OldestAge() (sim.Time, bool)

	// ReleaseOldest releases the consumer's oldest item, freeing at least
	// one frame to the pool in the common case. It reports false when there
	// was nothing to release. A release is allowed to free no frame (for
	// example, a VM page may move into the compression cache, which absorbs
	// the freed frame to grow); the allocator keeps iterating. The error
	// reports a failure of work the release triggered (a writeback that hit
	// a device error, a fragment that failed verification).
	ReleaseOldest() (bool, error)
}

// Bias adjusts how stale one consumer's memory looks.
type Bias struct {
	// Scale multiplies the raw age; 1 is neutral, >1 makes the consumer's
	// items look older (reclaimed sooner), <1 younger (retained longer).
	Scale float64

	// Offset is added after scaling; positive means reclaimed sooner.
	Offset time.Duration
}

// Neutral is the identity bias.
var Neutral = Bias{Scale: 1}

// Biases holds one bias per consumer a machine registers: the VM's
// uncompressed pages, the file cache and the compression cache.
type Biases struct {
	VM, FS, CC Bias
}

// DefaultBiases reproduces the paper's preference order: the file cache is
// penalized (reclaimed first), uncompressed VM pages are neutral, and
// compressed pages are favored so the compression cache can grow during
// heavy paging. A machine takes the bias of any consumer its configuration
// leaves zero from here.
func DefaultBiases() Biases {
	return Biases{
		FS: Bias{Scale: 1.0, Offset: 2 * time.Second},
		VM: Bias{Scale: 1.0},
		CC: Bias{Scale: 0.5, Offset: -2 * time.Second},
	}
}

// Allocator arbitrates the shared frame pool between consumers.
type Allocator struct {
	pool  *mem.Pool
	clock *sim.Clock

	consumers []Consumer
	biases    []Bias

	// Per-call scratch, reused so the fault path does not allocate. The
	// allocator is single-goroutine like the machine that owns it, and
	// AllocFrame and FreeOne never recurse into each other.
	excluded   []bool
	noProgress []int
}

// scratch returns the per-consumer exclusion and progress counters, cleared.
func (a *Allocator) scratch() (excluded []bool, noProgress []int) {
	if cap(a.excluded) < len(a.consumers) {
		a.excluded = make([]bool, len(a.consumers))
		a.noProgress = make([]int, len(a.consumers))
	}
	excluded = a.excluded[:len(a.consumers)]
	noProgress = a.noProgress[:len(a.consumers)]
	for i := range excluded {
		excluded[i] = false
		noProgress[i] = 0
	}
	return excluded, noProgress
}

// NewAllocator creates an allocator over pool.
func NewAllocator(pool *mem.Pool, clock *sim.Clock) *Allocator {
	return &Allocator{pool: pool, clock: clock}
}

// Register adds a consumer with the given bias.
func (a *Allocator) Register(c Consumer, b Bias) {
	if b.Scale == 0 {
		b.Scale = 1
	}
	a.consumers = append(a.consumers, c)
	a.biases = append(a.biases, b)
}

// noProgressLimit is how many consecutive releases a consumer may perform
// within one allocation without the pool gaining a frame before it is set
// aside for the rest of that allocation. A release that frees no frame is
// legitimate (a VM page migrating into the compression cache absorbs the
// frame it vacated), but it must not be allowed to starve the request.
const noProgressLimit = 8

// AllocFrame returns a frame for owner, reclaiming from the registered
// consumers as needed. It returns an error wrapping ErrOutOfMemory when no
// consumer can release anything, and propagates the first failure a
// release's triggered work reports (writeback device error, fragment
// verification failure).
func (a *Allocator) AllocFrame(owner mem.Owner) (mem.FrameID, error) {
	excluded, noProgress := a.scratch()
	// Generous bound: 4x the pool is far beyond any legitimate reclaim chain.
	maxTries := 4*a.pool.Total() + 16*(len(a.consumers)+1)
	for try := 0; try < maxTries; try++ {
		if id, ok := a.pool.Alloc(owner); ok {
			return id, nil
		}
		idx := a.pick(excluded)
		if idx < 0 {
			break
		}
		freeBefore := a.pool.FreeCount()
		released, err := a.consumers[idx].ReleaseOldest()
		if err != nil {
			return 0, err
		}
		if !released {
			excluded[idx] = true
			continue
		}
		if a.pool.FreeCount() > freeBefore {
			noProgress[idx] = 0
			continue
		}
		if noProgress[idx]++; noProgress[idx] >= noProgressLimit {
			excluded[idx] = true
		}
	}
	return 0, fmt.Errorf("%w allocating for %v: pool %d frames, no consumer can free one",
		ErrOutOfMemory, owner, a.pool.Total())
}

// FreeOne performs a single policy-guided reclamation (the consumer with the
// greatest effective age releases its oldest item) and reports whether
// anything was released. Callers that want to make room for opportunistic
// insertions — e.g. pages prefetched by a clustered swap read — use it
// instead of AllocFrame so failure is non-fatal.
func (a *Allocator) FreeOne() (bool, error) {
	excluded, _ := a.scratch()
	for range a.consumers {
		idx := a.pick(excluded)
		if idx < 0 {
			return false, nil
		}
		released, err := a.consumers[idx].ReleaseOldest()
		if err != nil {
			return false, err
		}
		if released {
			return true, nil
		}
		excluded[idx] = true
	}
	return false, nil
}

// pick returns the index of the non-excluded consumer with the greatest
// effective age, or -1 when none qualifies.
func (a *Allocator) pick(excluded []bool) int {
	now := a.clock.Now()
	best := -1
	var bestEff float64
	for i, c := range a.consumers {
		if excluded[i] {
			continue
		}
		t, ok := c.OldestAge()
		if !ok {
			continue
		}
		eff := float64(now.Sub(t))*a.biases[i].Scale + float64(a.biases[i].Offset)
		if best == -1 || eff > bestEff {
			best, bestEff = i, eff
		}
	}
	return best
}
