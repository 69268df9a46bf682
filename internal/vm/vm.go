// Package vm implements the simulated virtual-memory system: segments, page
// tables, an exact-LRU resident list, and the page-fault path.
//
// The VM system is deliberately policy-free about where page contents go
// when they leave memory: it delegates to a Pager, which the machine package
// implements by combining the compression cache and the backing store. This
// mirrors the paper's structure, where the compression cache is "a new level
// in the memory management hierarchy" slotted between uncompressed pages and
// the backing store (§4.1), and keeps this package reusable for the
// unmodified baseline system (a Pager that goes straight to swap).
//
// Sprite used true LRU approximations; the simulator uses exact LRU, updated
// on every simulated reference, which is affordable in a simulator and
// matches the paper's analysis ("The system uses an LRU algorithm for page
// replacement", §5.1).
package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"compcache/internal/mem"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/stats"
	"compcache/internal/swap"
)

// PageState is where a page's current contents live.
type PageState int8

// Page states.
const (
	// Untouched pages have never been written; they read as zeros and cost
	// no I/O to reconstruct.
	Untouched PageState = iota
	// Resident pages occupy a physical frame, uncompressed.
	Resident
	// Compressed pages live in the compression cache.
	Compressed
	// Swapped pages' current contents are only on the backing store.
	Swapped
	// Partial pages occupy a frame like Resident ones, but only a prefix of
	// it holds their contents yet: a PrefixPager restored them in part, and
	// decodes the rest when a reference needs it (see PrefixPager). To
	// everything the simulated machine reports a Partial page is Resident.
	Partial
)

// String returns the state name.
func (s PageState) String() string {
	switch s {
	case Untouched:
		return "untouched"
	case Resident:
		return "resident"
	case Compressed:
		return "compressed"
	case Swapped:
		return "swapped"
	case Partial:
		return "partial"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Page is one virtual page's bookkeeping. The Pager may read and write the
// exported fields; the VM owns State, Valid, Frame and the LRU links.
type Page struct {
	Key   swap.PageKey
	State PageState

	// Valid counts the 8-byte words at the start of the frame that hold the
	// page's contents: all of them once the page is Resident, fewer while it
	// is Partial, where a reference past them asks the pager for more. Only a
	// fault or a further decode writes it (settle). Like Memo it fills padding
	// and a snapshot does not carry it: a restored page reads 0.
	Valid uint16

	Frame mem.FrameID

	// Dirty reports that the resident copy has been modified since it was
	// last made durable; a dirty page cannot be discarded without either
	// compressing it into the cache or writing it to the backing store.
	Dirty bool

	// SwapValid reports that the backing store holds the page's current
	// contents (so a clean eviction needs no write).
	SwapValid bool

	// EverWritten distinguishes pages that have only ever been read (their
	// contents are still all zeros and can be recreated for free).
	EverWritten bool

	// Pinned pages are exempt from LRU eviction — the §3 "advisory to the
	// operating system" that LRU replacement will behave poorly. A pinned
	// page must be resident.
	Pinned bool

	// Memo belongs to the pager: the VM never reads or writes it, a snapshot
	// does not carry it, and it starts at zero. It sits in what would
	// otherwise be padding, so Page stays 48 bytes; the machine keeps the
	// index of the page's remembered forms in it (internal/machine/memo.go).
	Memo int32

	// LastUse is the virtual time of the page's most recent reference.
	LastUse sim.Time

	prev, next *Page
}

// HoldsFrame reports whether the page occupies a physical frame: it is
// Resident or Partial.
func (p *Page) HoldsFrame() bool { return p.State == Resident || p.State == Partial }

// Source says where a fault's contents came from; the Pager returns it so
// the VM can attribute the fault in its statistics.
type Source int8

// Fault sources.
const (
	SrcZero   Source = iota // zero-filled cold fault
	SrcCC                   // decompressed from the compression cache
	SrcSwap                 // read from the backing store
	SrcRemote               // fetched from remote fleet memory (cluster runs)
)

// Pager moves page contents between memory and the lower levels of the
// hierarchy. The machine package implements it.
type Pager interface {
	// PageOut disposes of the contents of a page leaving Resident state.
	// data is on loan: it is the evicted frame's own bytes, not a copy. The
	// frame has already been released, so the pager may take it — the
	// compression cache growing by one frame to absorb this very page — but
	// only for an owner that never writes frame bytes (mem.CC, mem.Kernel);
	// the pool panics if the frame goes to mem.VM or mem.FS before PageOut
	// returns. The pager reads data, copies what it keeps, must not retain
	// the slice, and must not evict. PageOut must set p.State to Compressed,
	// Swapped or Untouched and maintain p.Dirty/p.SwapValid. On error the
	// page's contents are lost (a device failure with no remaining copy).
	PageOut(p *Page, data []byte) error

	// PageIn produces the page's current contents into data (the new
	// frame's bytes, which p.Frame names during the call) and reports where
	// they came from. It must update p.Dirty/p.SwapValid; the VM sets
	// p.State to Resident afterwards. On error data is not valid and the
	// page stays in its prior state.
	PageIn(p *Page, data []byte) (Source, error)

	// Dirtied is called when a clean resident page is first modified, so
	// stale copies at lower levels can be invalidated.
	Dirtied(p *Page)
}

// PrefixPager is a Pager that can restore a page in part: the VM finds out
// with a type assertion when the pager is installed, and then faults through
// PageInPrefix instead of PageIn. A page restored in part is Partial, holds
// its frame and is on the LRU list like a Resident one, and is charged
// nothing more: every cost of the fault was charged when it was restored.
// Only the host's work is put off. The pager sees p.Frame set to the
// faulting frame during both calls, and PageOut of a Partial page lends it
// the frame as it is: only the prefix holds the page's bytes.
type PrefixPager interface {
	Pager

	// PageInPrefix is PageIn for a fault that needs only the first need
	// bytes of the page, and reports how many leading bytes of data hold the
	// page's contents on return: at least need, and len(data) when the page
	// is whole.
	PageInPrefix(p *Page, data []byte, need int) (Source, int, error)

	// Extend makes at least the first need bytes of Partial page p's frame,
	// data, hold its contents, and reports how many leading bytes do. An
	// error is what the simulated process dies of.
	Extend(p *Page, data []byte, need int) (int, error)
}

// Segment is a contiguous range of virtual pages (the unit that has a swap
// file in Sprite).
type Segment struct {
	ID     int32
	Name   string
	NPages int32
	pages  []Page
}

// Page returns the page descriptor for page n.
func (s *Segment) Page(n int32) *Page {
	if uint(n) >= uint(len(s.pages)) { // len(s.pages) == NPages
		s.outOfRange(n)
	}
	return &s.pages[n]
}

// outOfRange is Page's panic, out of line so that Page inlines into Touch.
//
//go:noinline
func (s *Segment) outOfRange(n int32) {
	// Invariant: a reference outside the segment is the simulated
	// equivalent of a wild pointer — a workload bug, not a runtime fault.
	panic(fmt.Sprintf("vm: page %d out of range [0,%d) in segment %q", n, s.NPages, s.Name))
}

// Size reports the segment size in bytes, given the page size p.
func (s *Segment) Size(pageSize int) int64 { return int64(s.NPages) * int64(pageSize) }

// VM is the virtual-memory system.
type VM struct {
	vmState
	clock *sim.Clock
	pool  *mem.Pool
	pager Pager // installed with SetPager after construction

	// prefix is pager as a PrefixPager, when it is one.
	prefix PrefixPager

	// memRef and faultOverhead are the two costs of the model the VM charges
	// itself: every reference, and every fault's software overhead.
	memRef, faultOverhead sim.Duration

	// frameSource obtains a frame for a faulting page, reclaiming one
	// through the replacement policy when the pool is empty.
	frameSource func(mem.Owner) (mem.FrameID, error)

	// pageShift and pageMask split a byte offset into page number and
	// offset within the page; the page size is a power of two (see New).
	pageShift uint
	pageMask  int64

	// traceHook, when set, observes every simulated reference (segment,
	// page, write); the trace package's Recorder plugs in here.
	traceHook func(seg, page int32, write bool)

	bus       *obs.Bus
	faultHist *obs.Histogram // vm.fault_service — full fault service time

	// err is the first reference that failed; see Err. It is not replay
	// state: a dead VM is never snapshotted.
	err error
}

// vmState is the VM's replay state: everything a snapshot carries.
type vmState struct {
	segs    []*Segment
	nextSeg int32

	lruHead  *Page // least recently used resident page
	lruTail  *Page // most recently used
	resident int

	st stats.VM
}

// New creates a VM system. The pager and frame source must be installed with
// SetPager/SetFrameSource before the first fault.
func New(clock *sim.Clock, pool *mem.Pool, cost sim.CostModel) *VM {
	ps := pool.PageSize()
	if ps&(ps-1) != 0 {
		// Invariant: machine.Config validation rejects other sizes with a
		// typed error; byte addressing is shift and mask, with no division
		// fallback for a direct constructor to fall into.
		panic(fmt.Sprintf("vm: page size %d is not a power of two", ps))
	}
	v := &VM{
		clock:         clock,
		pool:          pool,
		memRef:        cost.MemRef,
		faultOverhead: cost.FaultOverhead,
		pageShift:     uint(bits.TrailingZeros(uint(ps))),
		pageMask:      int64(ps - 1),
	}
	v.frameSource = func(o mem.Owner) (mem.FrameID, error) {
		id, ok := pool.Alloc(o)
		if !ok {
			return 0, fmt.Errorf("vm: no frame source wired and pool exhausted")
		}
		return id, nil
	}
	return v
}

// SetPager installs the pager.
func (v *VM) SetPager(p Pager) {
	v.pager = p
	v.prefix, _ = p.(PrefixPager)
}

// SetFrameSource installs the policy-backed frame allocator.
func (v *VM) SetFrameSource(f func(mem.Owner) (mem.FrameID, error)) { v.frameSource = f }

// SetTraceHook installs an observer called on every simulated reference and
// returns the one it replaces; nil disables tracing. A caller that installs a
// hook for a while (workload.Multi) chains to the hook it got back and
// reinstalls it when done.
func (v *VM) SetTraceHook(f func(seg, page int32, write bool)) (prev func(seg, page int32, write bool)) {
	prev, v.traceHook = v.traceHook, f
	return prev
}

// SetObserver wires the VM to a machine's event bus; nil disables emission.
// Probe handles are cached here so the fault path never touches registry maps.
func (v *VM) SetObserver(b *obs.Bus) {
	v.bus = b
	v.faultHist = b.Histogram("vm.fault_service")
}

// Stats returns a snapshot of the VM counters.
func (v *VM) Stats() stats.VM { return v.st }

// Err returns the error of the first reference that failed (a fault the
// pager or the frame source could not serve), or nil. The simulated process
// is dead from then on: every later Touch, Pin, Read, Write, ReadWord and
// WriteWord returns this error at once, counts no reference and moves no
// clock, and ReadWord reads 0.
func (v *VM) Err() error { return v.err }

// ResidentPages reports the number of uncompressed resident pages.
func (v *VM) ResidentPages() int { return v.resident }

// PageSize reports the page size in bytes.
func (v *VM) PageSize() int { return v.pool.PageSize() }

// Segments returns the live segments; segment id i is element i.
func (v *VM) Segments() []*Segment { return v.segs }

// Segment returns the segment with the given id, or nil when there is none.
func (v *VM) Segment(id int32) *Segment {
	if uint(id) >= uint(len(v.segs)) {
		return nil
	}
	return v.segs[id]
}

// NewSegment creates a segment of npages pages.
func (v *VM) NewSegment(name string, npages int32) *Segment {
	if npages <= 0 {
		// Invariant: setup-time configuration error, not a runtime fault.
		panic(fmt.Sprintf("vm: segment %q must have at least one page", name))
	}
	s := &Segment{ID: v.nextSeg, Name: name, NPages: npages, pages: make([]Page, npages)}
	v.nextSeg++
	for i := range s.pages {
		s.pages[i].Key = swap.PageKey{Seg: s.ID, Page: int32(i)}
		s.pages[i].Frame = mem.NoFrame
	}
	v.segs = append(v.segs, s)
	return s
}

// Touch simulates one memory reference to page n of segment s, faulting it
// in if necessary, and returns the page (resident on return). Every call
// costs one memory-reference time plus whatever the fault path costs. On
// error the page is not resident and the reference did not complete — the
// simulated process took an unrecoverable machine check (see Err).
//
// access repeats this body for a single-page byte or word access, in the
// same order but with a test for a hit on the LRU tail first;
// TestLRUAgainstModel holds both to one model.
func (v *VM) Touch(s *Segment, n int32, write bool) (*Page, error) {
	if v.err != nil {
		return nil, v.err
	}
	v.st.Refs++
	v.clock.Advance(v.memRef)
	if v.traceHook != nil {
		v.traceHook(s.ID, n, write)
	}
	p := s.Page(n)
	if p.State == Resident {
		v.lruTouch(p)
	} else if err := v.fault(p, int(v.pageMask)+1); err != nil {
		return nil, err
	}
	if write {
		v.markWritten(p)
	}
	return p, nil
}

func (v *VM) markWritten(p *Page) {
	p.EverWritten = true
	if !p.Dirty {
		p.Dirty = true
		p.SwapValid = false
		v.pager.Dirtied(p)
	}
}

// fault brings a page that is not Resident into memory, as far as a
// reference that needs its first need bytes requires: a Partial page is
// referenced as a hit and decoded further if need passes its prefix, any
// other page faults. On error the allocated frame is returned to the pool,
// the page keeps its prior state, and the VM is dead (see Err).
func (v *VM) fault(p *Page, need int) error {
	if p.State == Partial {
		v.lruTouch(p)
		return v.decode(p, need)
	}
	if p.State == Resident {
		// Invariant: Touch only calls fault for non-resident pages.
		panic("vm: fault on resident page")
	}
	v.st.Faults++
	t0 := v.clock.Now()
	v.clock.Charge(sim.CauseFault, v.faultOverhead)

	frame, err := v.frameSource(mem.VM)
	if err != nil {
		return v.die(err)
	}
	data := v.pool.Bytes(frame)

	source := obs.FaultSrcZero
	valid := len(data)
	switch p.State {
	case Untouched:
		v.st.ColdFaults++
		clear(data)
		p.Dirty = false
		p.SwapValid = false
	default:
		var src Source
		p.Frame = frame
		if v.prefix != nil {
			src, valid, err = v.prefix.PageInPrefix(p, data, need)
		} else {
			src, err = v.pager.PageIn(p, data)
		}
		if err != nil {
			p.Frame = mem.NoFrame
			v.pool.Release(frame)
			return v.die(err)
		}
		switch src {
		case SrcCC:
			v.st.CacheHits++
			source = obs.FaultSrcCC
		case SrcSwap:
			v.st.SwapIns++
			source = obs.FaultSrcSwap
		case SrcRemote:
			v.st.RemoteIns++
			source = obs.FaultSrcRemote
		case SrcZero:
			v.st.ColdFaults++
		}
	}
	p.Frame = frame
	v.settle(p, valid)
	v.lruAppend(p)
	svc := time.Duration(v.clock.Now() - t0)
	v.faultHist.Observe(svc)
	if v.bus.Enabled(obs.ClassFault) {
		v.bus.Emit(obs.Event{
			T: v.clock.Now(), Class: obs.ClassFault, Sub: obs.SubVM,
			Seg: p.Key.Seg, Page: p.Key.Page, Dur: svc, Aux: source,
		})
	}
	return nil
}

// decode makes at least the first need bytes of Partial page p hold its
// contents, asking the pager for more when its prefix falls short.
func (v *VM) decode(p *Page, need int) error {
	if need <= int(p.Valid)*8 {
		return nil
	}
	valid, err := v.prefix.Extend(p, v.pool.Bytes(p.Frame), need)
	if err != nil {
		return v.die(err)
	}
	v.settle(p, valid)
	return nil
}

// settle makes a page whose frame holds valid leading bytes of its contents
// Resident when that is all of them, and Partial otherwise.
func (v *VM) settle(p *Page, valid int) {
	size := int(v.pageMask) + 1
	if valid >= size {
		p.State = Resident
		valid = size
	} else {
		p.State = Partial
	}
	p.Valid = uint16(valid / 8)
}

// die records a failed reference's error as the VM's first, unless a
// reference made inside the trace hook failed before it, and returns it.
func (v *VM) die(err error) error {
	if v.err == nil {
		v.err = err
	}
	return err
}

// Name identifies the VM system in the replacement policy ("vm").
func (v *VM) Name() string { return "vm" }

// OldestAge reports the last-use time of the LRU resident page; ok is false
// when nothing is resident. This makes the VM a consumer in the three-way
// memory trade.
func (v *VM) OldestAge() (sim.Time, bool) {
	if v.lruHead == nil {
		return 0, false
	}
	return v.lruHead.LastUse, true
}

// ReleaseOldest evicts the least-recently-used unpinned resident page,
// handing its contents to the pager, and frees its frame. It reports false
// when nothing evictable is resident.
func (v *VM) ReleaseOldest() (bool, error) {
	p := v.lruHead
	for p != nil && p.Pinned {
		v.st.PinnedSkips++
		p = p.next
	}
	if p == nil {
		return false, nil
	}
	return true, v.Evict(p)
}

// Pin makes the page exempt from eviction, faulting it in first if needed
// (the §3 advisory interface). It returns the page.
func (v *VM) Pin(s *Segment, n int32) (*Page, error) {
	p, err := v.Touch(s, n, false)
	if err != nil {
		return nil, err
	}
	p.Pinned = true
	return p, nil
}

// Unpin makes the page evictable again.
func (v *VM) Unpin(s *Segment, n int32) {
	s.Page(n).Pinned = false
}

// Evict forces a specific resident page out of memory (exported for tests
// and for workload madvise-style hints).
func (v *VM) Evict(p *Page) error {
	if !p.HoldsFrame() {
		// Invariant: callers (ReleaseOldest, tests) select from the resident
		// LRU list; evicting a non-resident page is a programming error.
		panic(fmt.Sprintf("vm: Evict of non-resident page %v (%v)", p.Key, p.State))
	}
	if p.Pinned {
		// Invariant: ReleaseOldest skips pinned pages; direct callers must
		// check Pinned themselves.
		panic(fmt.Sprintf("vm: Evict of pinned page %v", p.Key))
	}
	v.st.Evictions++
	if p.Dirty {
		v.st.WriteBacks++
	}
	if v.bus.Enabled(obs.ClassEvict) {
		aux := int64(0)
		if p.Dirty {
			aux = 1
		}
		v.bus.Emit(obs.Event{
			T: v.clock.Now(), Class: obs.ClassEvict, Sub: obs.SubVM,
			Seg: p.Key.Seg, Page: p.Key.Page, Aux: aux,
		})
	}
	v.lruRemove(p)
	v.resident--

	// Never-written page: contents are all zeros; recreate on demand.
	zeros := !p.Dirty && !p.EverWritten && !p.SwapValid

	frame := p.Frame
	if zeros {
		p.Frame = mem.NoFrame
		v.pool.Release(frame)
		p.State = Untouched
		return nil
	}
	// The pager gets the frame's own bytes on loan, the frame already released
	// so that it can reuse it: the kernel compresses straight out of the page
	// frame, and so does the simulator (mem.Pool.Lend). p.Frame still names
	// it until PageOut returns.
	err := v.pager.PageOut(p, v.pool.Lend(frame))
	v.pool.EndLoan()
	p.Frame = mem.NoFrame
	return err
}

// lru plumbing ---------------------------------------------------------------

func (v *VM) lruAppend(p *Page) {
	p.LastUse = v.clock.Now()
	p.prev = v.lruTail
	p.next = nil
	if v.lruTail != nil {
		v.lruTail.next = p
	} else {
		v.lruHead = p
	}
	v.lruTail = p
	v.resident++
}

func (v *VM) lruRemove(p *Page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		v.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		v.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// lruTouch makes resident page p the most recently used: a hit on the tail
// only refreshes LastUse, any other page is spliced to the tail. It reads the
// clock itself, after Touch's trace hook has returned — the hook is
// re-entrant (workload.Multi runs other processes inside it, which touch
// pages and advance the clock), so neither the time Advance returned before
// the hook nor a tail read before it is still current.
func (v *VM) lruTouch(p *Page) {
	p.LastUse = v.clock.Now()
	if p == v.lruTail {
		return
	}
	next := p.next // non-nil: p is resident and not the tail
	if p.prev != nil {
		p.prev.next = next
	} else {
		v.lruHead = next
	}
	next.prev = p.prev
	p.prev, p.next = v.lruTail, nil
	v.lruTail.next = p
	v.lruTail = p
}

// CheckLRU verifies the resident list's internal consistency (length,
// linkage, monotone LastUse order); tests call it after stressing the VM.
func (v *VM) CheckLRU() error {
	count := 0
	var last sim.Time
	for p := v.lruHead; p != nil; p = p.next {
		if !p.HoldsFrame() {
			return fmt.Errorf("vm: non-resident page %v on LRU list", p.Key)
		}
		if p.LastUse < last {
			return fmt.Errorf("vm: LRU list out of order at %v", p.Key)
		}
		last = p.LastUse
		count++
		if count > v.resident {
			break
		}
	}
	if count != v.resident {
		return fmt.Errorf("vm: LRU list has %d pages, resident counter says %d", count, v.resident)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Byte-level access: workloads store real data in simulated pages.

// Read copies len(buf) bytes at byte offset off in segment s into buf,
// touching (and faulting) each covered page.
func (v *VM) Read(s *Segment, off int64, buf []byte) error {
	return v.access(s, off, buf, nil, opRead)
}

// Write copies data into segment s at byte offset off, touching (and
// faulting) each covered page and marking it dirty.
func (v *VM) Write(s *Segment, off int64, data []byte) error {
	return v.access(s, off, data, nil, opWrite)
}

// ReadWord reads the 8-byte little-endian word at byte offset off, which
// must not straddle a page.
func (v *VM) ReadWord(s *Segment, off int64) (uint64, error) {
	var w uint64
	err := v.access(s, off, nil, &w, opReadWord)
	return w, err
}

// ReadWordInto is ReadWord with the word stored through w, which an error
// leaves untouched. With one result its callers' forwards stay inlineable
// (machine.Space.ReadWord).
func (v *VM) ReadWordInto(s *Segment, off int64, w *uint64) error {
	return v.access(s, off, nil, w, opReadWord)
}

// WriteWord writes the 8-byte little-endian word at byte offset off, which
// must not straddle a page.
func (v *VM) WriteWord(s *Segment, off int64, val uint64) error {
	return v.access(s, off, nil, &val, opWriteWord)
}

// accessOp is what access does at the bytes it reaches; the write ops are
// the odd ones.
type accessOp uint8

const (
	opRead accessOp = iota
	opWrite
	opReadWord
	opWriteWord
)

// access is the one entry behind Read, Write, ReadWord and WriteWord. A
// zero-length byte access is no reference at all. An access within one page
// is one reference, made here in Touch's order — so a resident hit is one
// host call from the workload — and then the copy or the word move. Only a
// byte access that spans pages goes through Touch, once per page.
//
// The word moves through a pointer, not a result, because a second result
// puts the Read and Write wrappers, and the machine's forwards around them,
// over the inliner's budget.
//
// The lengths the workloads move (1 and 4 for compare's cells and rows, 16
// for sort's records) are fixed-size array moves compiled into access, so a
// hit makes no runtime call for them; any other length is a copy. A shared
// helper for short moves is out of line and gives the call back.
func (v *VM) access(s *Segment, off int64, buf []byte, word *uint64, op accessOp) error {
	if v.err != nil {
		return v.err
	}
	if off < 0 {
		// Invariant: the simulated equivalent of a wild pointer (see Page).
		panic("vm: negative offset")
	}
	in, n := int(off&v.pageMask), len(buf)
	if op >= opReadWord {
		n = 8
		if in+n > int(v.pageMask)+1 {
			// Invariant: word accessors are documented page-aligned; a
			// straddle is a workload bug.
			panic(fmt.Sprintf("vm: word access at %d straddles a page boundary", off))
		}
	} else if n == 0 {
		return nil
	} else if in+n > int(v.pageMask)+1 {
		return v.accessPages(s, off, buf, op == opWrite)
	}
	write := op&1 != 0
	v.st.Refs++
	v.clock.Advance(v.memRef)
	page := int32(off >> v.pageShift)
	if v.traceHook != nil {
		v.traceHook(s.ID, page, write)
	}
	// A hit on the LRU tail needs neither the page table nor a splice, only
	// a fresh LastUse (lruTouch's first case). The tail is read here, after
	// the trace hook, which may have moved it.
	// A Partial page is never taken as a hit here: the reference may lie
	// past its prefix.
	p := v.lruTail
	if p != nil && p.Key == (swap.PageKey{Seg: s.ID, Page: page}) && p.State == Resident {
		p.LastUse = v.clock.Now()
	} else {
		p = s.Page(page)
		if p.State == Resident {
			v.lruTouch(p)
		} else {
			need := in + n
			if write {
				need = int(v.pageMask) + 1 // a write finishes the page first
			}
			if err := v.fault(p, need); err != nil {
				return err
			}
		}
	}
	if write {
		v.markWritten(p)
	}
	b := v.pool.Bytes(p.Frame)[in : in+n]
	switch op {
	case opReadWord:
		*word = binary.LittleEndian.Uint64(b)
		return nil
	case opWriteWord:
		binary.LittleEndian.PutUint64(b, *word)
		return nil
	}
	dst, src := buf, b
	if write {
		dst, src = b, buf
	}
	switch n {
	case 1:
		dst[0] = src[0]
	case 4:
		*(*[4]byte)(dst) = *(*[4]byte)(src)
	case 16:
		*(*[16]byte)(dst) = *(*[16]byte)(src)
	default:
		copy(dst, src)
	}
	return nil
}

// accessPages is access for a byte range that spans pages: one Touch, and
// one copy, per page covered.
func (v *VM) accessPages(s *Segment, off int64, buf []byte, write bool) error {
	for len(buf) > 0 {
		in := int(off & v.pageMask)
		n := min(int(v.pageMask)+1-in, len(buf))
		p, err := v.Touch(s, int32(off>>v.pageShift), write)
		if err != nil {
			return err
		}
		frame := v.pool.Bytes(p.Frame)[in : in+n]
		if write {
			copy(frame, buf[:n])
		} else {
			copy(buf[:n], frame)
		}
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}
