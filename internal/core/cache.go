// Package core implements the compression cache, the paper's primary
// contribution (§4).
//
// The cache is a variable-size circular buffer of physical page frames
// mapped (conceptually) into contiguous kernel virtual addresses. Compressed
// pages are appended at the tail, each preceded by a small header; they may
// span frame boundaries because the buffer is virtually contiguous. Frames
// are reclaimed from the oldest end — or from the middle when no clean frame
// is available at the oldest end — and returned to the shared pool, shrinking
// the cache; growth happens one frame at a time as insertions need space.
//
// Entry life cycle (the paper's Figure 2 states, at entry granularity):
//
//	dirty — holds modified data that exists nowhere else; must be written
//	        to the backing store before its frame can be reclaimed.
//	clean — the backing store holds the same contents (either the cleaner
//	        wrote it out, or the entry was populated from a backing-store
//	        read); droppable at any time.
//	dead  — superseded (the page was faulted back in, or dropped); its
//	        space is reclaimed when its frame leaves the ring.
//
// A frame whose overlapping entries are all clean or dead is reclaimable; a
// "new" frame in the paper's terminology is the tail frame still being
// filled. The cleaner writes the oldest dirty entries to the backing store
// in clustered batches so a supply of reclaimable frames is ready before the
// allocator needs them (§4.2).
//
// Insert is transactional: it verifies — without touching anything — that
// the frames it needs can actually be obtained before it reclaims, drops, or
// flushes anything. A failed Insert therefore has no observable side
// effects: no entries dropped, no drop hooks fired, no dirty batches
// flushed, and no counters changed.
package core

import (
	"fmt"
	"hash/crc32"

	"compcache/internal/mem"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/stats"
	"compcache/internal/swap"
)

// Checksum computes the integrity checksum stored with every compressed
// fragment (CRC-32/IEEE). It is computed once when data enters the cache and
// travels with the bytes through the backing store, so verification at
// decompress time catches corruption anywhere along the path — not just in
// the cache ring.
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Params configures a Cache.
type Params struct {
	// MaxFrames caps the cache's physical size; 0 means unbounded (the
	// replacement policy is then the only limit). When the cap is reached,
	// insertions recycle the cache's own oldest reclaimable frame instead
	// of growing.
	MaxFrames int

	// MinFrames stops ReleaseOldest from shrinking the cache below this
	// size. Setting MinFrames == MaxFrames and prefilling produces the
	// fixed-size cache of the paper's first design (§4.2), kept for the
	// ablation study.
	MinFrames int

	// FrameHeaderBytes is the per-frame header (24 bytes in the paper).
	FrameHeaderBytes int

	// EntryHeaderBytes is the per-compressed-page header (36 bytes in the
	// paper).
	EntryHeaderBytes int

	// CleanBatchBytes is how much dirty data one cleaning pass batches into
	// a clustered write (32 KBytes in the paper).
	CleanBatchBytes int

	// RefreshOnFault makes a fault refresh the entry's age, so the
	// three-way policy treats actively reused compressed data as young
	// (LRU-like aging). The paper's ring ages entries by insertion only
	// (FIFO), which is the default; LRU aging helps read-mostly reuse
	// (e.g. the compressed file cache) but over-retains the cache for
	// workloads like gold that need uncompressed frames more.
	RefreshOnFault bool
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		FrameHeaderBytes: 24,
		EntryHeaderBytes: 36,
		CleanBatchBytes:  32 * 1024,
	}
}

// Entry is one compressed page in the cache. Its bytes live in the cache's
// own frames, where the ring's accounting places them: the entry header
// begins start bytes into frames[0], and the n data bytes follow it, each
// frame boundary they cross skipping the next frame's header. Insert copies
// the data in at the boundary; Fault, Peek and Clean read it out (data).
type Entry struct {
	Key    swap.PageKey
	Sum    uint32 // Checksum of the data, computed at insertion
	n      int32  // data bytes
	start  int32  // offset of the entry header in frames[0]
	Dirty  bool
	dead   bool
	insert sim.Time
	frames []*ccFrame // the frames the entry overlaps; backed by frameBuf
	refs   int32      // frames still holding this entry; 0 → recyclable
	oidx   int32      // index of this entry's slot in the order deque
	// frameBuf backs frames: a page and its header overlap at most the tail
	// frame and two new ones, so an Entry is one allocation.
	frameBuf [3]*ccFrame
}

// footprint is the buffer space the entry occupies, including its header.
func (e *Entry) footprint(p Params) int { return int(e.n) + p.EntryHeaderBytes }

type ccFrame struct {
	id      mem.FrameID
	used    int // bytes consumed, including the frame header
	entries []*Entry
	dirty   int // live dirty entries among entries; derived, see scanDirty
	// entryBuf backs entries: a frame overlaps about two entries, so a new
	// ccFrame is one allocation; append grows the rare frame that holds
	// more, and the grown array stays with the frame through framePool.
	entryBuf [4]*Entry
}

// reclaimable reports whether every entry overlapping the frame is clean or
// dead.
func (f *ccFrame) reclaimable() bool { return f.dirty == 0 }

// scanDirty counts the frame's live dirty entries the slow way. The cache
// keeps f.dirty and Cache.reclaimable equal to what this scan finds — the
// cleaner asks on every frame allocation — by counting at the transitions:
// a dirty insert, markClean, and a frame entering or leaving the ring.
func (f *ccFrame) scanDirty() int {
	n := 0
	for _, e := range f.entries {
		if !e.dead && e.Dirty {
			n++
		}
	}
	return n
}

// FlushFunc persists a batch of dirty entries to the backing store (the
// machine implements it with a clustered asynchronous write and updates the
// affected pages' bookkeeping). It is called before the entries are marked
// clean; on error the entries stay dirty.
type FlushFunc func(items []swap.Item) error

// DropFunc is called when a live clean entry is discarded during frame
// reclamation, so the owner can account that the page now lives only on the
// backing store.
type DropFunc func(key swap.PageKey)

// Cache is the compression cache.
type Cache struct {
	cacheState
	params Params
	clock  *sim.Clock
	pool   *mem.Pool

	entries swap.PageTable[*Entry] // index of the live entries in the ring

	// Recycling freelists: Entry and ccFrame structs return when the last
	// reference (ring frame) lets go. Together with the order-slot nil-out
	// in kill they make the steady-state insert/kill cycle allocation-free.
	// All bookkeeping is per-cache and single-goroutine, so recycling cannot
	// perturb determinism.
	entryPool  []*Entry
	framePool  []*ccFrame
	acqBuf     []mem.FrameID // Insert's frame-acquisition buffer
	cleanBatch []*Entry      // Clean's batch buffer
	cleanItems []swap.Item   // Clean's flush-item buffer
	cleanBuf   []byte        // Clean's gathered entries; see data
	gather     []byte        // Fault's and Peek's gathered entry; see data

	flush  FlushFunc
	onDrop DropFunc
	taker  FrameTaker

	// reclaimable counts the ring frames with no live dirty entry. Like
	// ccFrame.dirty it is derived from the replay state, so a snapshot does
	// not carry it and a restore recounts it.
	reclaimable int

	bus *obs.Bus
}

// cacheState is the cache's replay state: everything a snapshot carries.
type cacheState struct {
	frames []*ccFrame // ring order; frames[0] is the oldest
	order  []*Entry   // insertion order; order[head:] are current, nil = killed
	head   int

	dirtyBytes int
	liveBytes  int

	st stats.CC
}

// New creates a compression cache drawing frames from pool.
func New(params Params, clock *sim.Clock, pool *mem.Pool) *Cache {
	if params.FrameHeaderBytes < 0 || params.EntryHeaderBytes < 0 {
		// Invariant: construction-time configuration error, not a runtime
		// fault; machine.Config validation rejects it before reaching here.
		panic("core: negative header size")
	}
	if params.CleanBatchBytes <= 0 {
		params.CleanBatchBytes = 32 * 1024
	}
	if params.FrameHeaderBytes >= pool.PageSize() {
		// Invariant: construction-time configuration error (see above).
		panic("core: frame header exceeds the page size")
	}
	return &Cache{params: params, clock: clock, pool: pool}
}

// SetHooks installs the backing-store flush and the drop notification.
func (c *Cache) SetHooks(flush FlushFunc, onDrop DropFunc) {
	c.flush = flush
	c.onDrop = onDrop
}

// FrameTaker is told of each frame the cache takes from the pool, before the
// cache clears and writes it: once an insert is sure to succeed, and in
// Prefill.
type FrameTaker interface{ TakeFrame(id mem.FrameID) }

// SetFrameTaker installs t, nil for none.
func (c *Cache) SetFrameTaker(t FrameTaker) { c.taker = t }

// SetObserver wires the cache to a machine's event bus; nil disables
// emission.
func (c *Cache) SetObserver(b *obs.Bus) { c.bus = b }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() stats.CC { return c.st }

// FrameCount reports the number of physical frames the cache holds.
func (c *Cache) FrameCount() int { return len(c.frames) }

// LiveBytes reports the footprint of live (non-dead) entries.
func (c *Cache) LiveBytes() int { return c.liveBytes }

// DirtyBytes reports the footprint of dirty entries.
func (c *Cache) DirtyBytes() int { return c.dirtyBytes }

// Len reports the number of live entries.
func (c *Cache) Len() int { return c.entries.Len() }

// Has reports whether the cache holds a live entry for key.
func (c *Cache) Has(key swap.PageKey) bool { return c.entries.Has(key) }

// frameCap is the usable bytes per frame.
func (c *Cache) frameCap() int { return c.pool.PageSize() - c.params.FrameHeaderBytes }

// newEntry returns a reset Entry, recycled when possible.
func (c *Cache) newEntry() *Entry {
	if k := len(c.entryPool); k > 0 {
		e := c.entryPool[k-1]
		c.entryPool = c.entryPool[:k-1]
		return e
	}
	e := &Entry{}
	e.frames = e.frameBuf[:0]
	return e
}

// newFrame returns an empty ccFrame for pool frame id, recycled when
// possible.
func (c *Cache) newFrame(id mem.FrameID) *ccFrame {
	if k := len(c.framePool); k > 0 {
		f := c.framePool[k-1]
		c.framePool = c.framePool[:k-1]
		f.id = id
		f.used = c.params.FrameHeaderBytes
		return f
	}
	f := &ccFrame{id: id, used: c.params.FrameHeaderBytes}
	f.entries = f.entryBuf[:0]
	return f
}

// take readies a frame just taken from the pool for the cache's bytes: the
// frame taker is told, and the frame is cleared, so that frame and entry
// headers and the slack past the last entry read as zeros and nothing of the
// frame's last owner stays in it.
func (c *Cache) take(id mem.FrameID) {
	if c.taker != nil {
		c.taker.TakeFrame(id)
	}
	clear(c.pool.Bytes(id))
}

// dataAt returns where e's data begins: the index in e.frames of the frame
// that holds its first byte, and the byte's offset in that frame. The header
// before it may itself cross a frame boundary.
func (c *Cache) dataAt(e *Entry) (i, off int) {
	ps := c.pool.PageSize()
	off = int(e.start) + c.params.EntryHeaderBytes
	for off >= ps && i+1 < len(e.frames) {
		off += c.params.FrameHeaderBytes - ps
		i++
	}
	return i, off
}

// store copies data, len(data) == e.n, into e's place in its frames.
func (c *Cache) store(e *Entry, data []byte) {
	i, off := c.dataAt(e)
	for {
		k := copy(c.pool.Bytes(e.frames[i].id)[off:], data)
		if data = data[k:]; len(data) == 0 {
			return
		}
		i, off = i+1, c.params.FrameHeaderBytes
	}
}

// data returns live entry e's bytes: a view of its frame when one frame
// holds them all, otherwise a copy gathered into buf, which must hold e.n
// bytes. Either way the caller keeps it only until its next call into the
// cache, so no slice into a frame outlives a call.
func (c *Cache) data(e *Entry, buf []byte) []byte {
	i, off := c.dataAt(e)
	n := int(e.n)
	if frame := c.pool.Bytes(e.frames[i].id); off+n <= len(frame) {
		return frame[off : off+n : off+n]
	}
	buf = buf[:n]
	for k := 0; k < n; i, off = i+1, c.params.FrameHeaderBytes {
		k += copy(buf[k:], c.pool.Bytes(e.frames[i].id)[off:])
	}
	return buf
}

// gathered returns e's bytes the way Fault and Peek hand them out, gathering
// a spanning entry into the cache's one page-sized buffer.
func (c *Cache) gathered(e *Entry) []byte {
	if c.gather == nil {
		c.gather = make([]byte, c.pool.PageSize())
	}
	return c.data(e, c.gather)
}

// Insert adds a compressed page to the tail of the ring. It reports false —
// without side effects — when the cache cannot obtain the frames it needs
// (pool empty and nothing reclaimable, or MaxFrames reached); the caller
// then sends the page to the backing store instead. Feasibility is
// established before any destructive work, so a failed insert reclaims no
// frames, drops no entries, fires no hooks, flushes nothing, and changes no
// counters. Data is COPIED into the cache's frames: the caller keeps
// ownership of the slice and may reuse it immediately, which is what lets
// the machine hand every codec one per-machine scratch buffer. Data must not
// be bytes the cache itself handed out (Fault, Peek). The error
// reports a flush failure during at-cap recycling; the insert is abandoned
// with any newly acquired frames returned to the pool.
func (c *Cache) Insert(key swap.PageKey, data []byte, dirty bool) (bool, error) {
	return c.InsertSummed(key, data, Checksum(data), dirty)
}

// InsertSummed is Insert for a caller that already holds the data's
// checksum — bytes it has just verified or summed for another reason — so the
// fragment is not summed twice. sum must be Checksum(data): the cache stores
// it as the fragment's integrity checksum without looking.
func (c *Cache) InsertSummed(key swap.PageKey, data []byte, sum uint32, dirty bool) (bool, error) {
	if len(data) > c.pool.PageSize() {
		// Invariant: the machine stores a page raw when compression does not
		// shrink it, so an entry can never exceed the page size.
		panic(fmt.Sprintf("core: entry for %v of %d bytes larger than a page", key, len(data)))
	}
	need := len(data) + c.params.EntryHeaderBytes

	// Work out how many new frames the tail needs, then acquire them all
	// before mutating anything so failure has no side effects. A frame's
	// `used` includes its frame header, so free space is measured against
	// the full page size.
	rem := 0
	var tailFrame *ccFrame
	if n := len(c.frames); n > 0 {
		tailFrame = c.frames[n-1]
		rem = c.pool.PageSize() - tailFrame.used
	}
	if rem == 0 {
		tailFrame = nil // full tail: nothing to protect during recycling
	}
	newFrames := 0
	if need > rem {
		newFrames = (need - rem + c.frameCap() - 1) / c.frameCap()
	}
	if !c.canAcquire(newFrames, tailFrame != nil) {
		return false, nil
	}
	acquired := c.acqBuf[:0]
	for i := 0; i < newFrames; i++ {
		if c.params.MaxFrames > 0 && len(c.frames)+len(acquired) >= c.params.MaxFrames {
			// At the cap: rotate the ring by recycling the oldest
			// reclaimable frame (fixed-size behaviour). canAcquire proved
			// the recycling cannot run dry, and the partially filled tail
			// frame this insert appends into is never recycled from under
			// it.
			for !c.reclaimFirstExcept(tailFrame) {
				n, err := c.Clean()
				if err != nil {
					for _, id := range acquired {
						c.pool.Release(id)
					}
					c.acqBuf = acquired[:0]
					return false, err
				}
				if n == 0 {
					// Invariant: canAcquire proved recycling cannot run dry
					// while dirty entries remain cleanable.
					panic("core: insert feasibility check admitted an unrecyclable ring")
				}
			}
		}
		id, ok := c.pool.Alloc(mem.CC)
		if !ok {
			// Invariant: canAcquire counted the pool's free frames.
			panic("core: insert feasibility check admitted an empty pool")
		}
		acquired = append(acquired, id)
	}

	if old, ok := c.entries.Get(key); ok {
		// A stale copy exists (e.g. the page went out, came back, changed,
		// and is going out again): supersede it now that success is assured.
		c.kill(old)
	}

	// Field by field: a composite literal is built on the stack and then
	// block-copied into the recycled entry.
	e := c.newEntry()
	e.Key, e.Sum, e.n, e.start = key, sum, int32(len(data)), int32(c.params.FrameHeaderBytes)
	e.Dirty, e.dead, e.insert = dirty, false, c.clock.Now()
	e.frames, e.refs, e.oidx = e.frames[:0], 0, 0
	left := need
	if rem > 0 {
		tail := c.frames[len(c.frames)-1]
		e.start = int32(tail.used)
		take := min(rem, left)
		tail.used += take
		tail.entries = append(tail.entries, e)
		e.frames = append(e.frames, tail)
		left -= take
	}
	for _, id := range acquired {
		c.take(id)
		f := c.newFrame(id)
		take := min(c.pool.PageSize()-f.used, left)
		f.used += take
		f.entries = append(f.entries, e)
		e.frames = append(e.frames, f)
		c.frames = append(c.frames, f)
		c.reclaimable++
		left -= take
		c.st.FrameGrows++
	}
	if left != 0 {
		// Invariant: the frame-count arithmetic above exactly covers need.
		panic("core: space accounting error during insert")
	}
	c.store(e, data)
	c.acqBuf = acquired[:0]
	e.refs = int32(len(e.frames))
	c.entries.Set(key, e)
	e.oidx = int32(len(c.order))
	c.order = append(c.order, e)
	c.liveBytes += need
	if dirty {
		c.dirtyBytes += need
		for _, f := range e.frames {
			if f.dirty++; f.dirty == 1 {
				c.reclaimable--
			}
		}
	}
	c.st.Inserts++
	if c.bus.Enabled(obs.ClassCCInsert) {
		aux := int64(0)
		if dirty {
			aux = 1
		}
		c.bus.Emit(obs.Event{
			T: c.clock.Now(), Class: obs.ClassCCInsert, Sub: obs.SubCore,
			Seg: key.Seg, Page: key.Page, Bytes: int64(len(data)), Aux: aux,
		})
	}
	return true, nil
}

// canAcquire reports whether Insert can obtain n new tail frames, without
// mutating anything. Frame acquisition draws first from the pool (growth,
// until MaxFrames is reached) and then recycles the ring's own frames
// (fixed-size rotation); protectTail excludes the partially filled tail
// frame — which the pending insert appends into — from recycling. The check
// mirrors the acquisition loop exactly: once it passes, acquisition cannot
// fail, so no destructive work happens before success is assured.
func (c *Cache) canAcquire(n int, protectTail bool) bool {
	if n == 0 {
		return true
	}
	direct := n
	if c.params.MaxFrames > 0 {
		headroom := c.params.MaxFrames - len(c.frames)
		if headroom < 0 {
			headroom = 0
		}
		if headroom < direct {
			direct = headroom
		}
	}
	if c.pool.FreeCount() < direct {
		return false
	}
	recycles := n - direct
	if recycles == 0 {
		return true
	}
	usable := len(c.frames)
	if protectTail {
		usable--
	}
	if usable < recycles {
		return false
	}
	if c.flush != nil {
		// Cleaning makes progress whenever dirty entries remain, so with a
		// flush hook installed every frame is eventually reclaimable.
		return true
	}
	avail := c.reclaimable
	if protectTail && c.frames[len(c.frames)-1].reclaimable() {
		avail--
	}
	return avail >= recycles
}

// Fault returns the entry for key, satisfying a page fault from the cache.
// The caller decompresses Data after verifying it against sum; dirty reports
// whether the backing store lacks the contents. The entry is RETAINED: "the
// compressed copy in memory can be freed at any time" (§4.1), and keeping it
// means a later eviction of the still-unmodified page costs nothing — the
// owner must Drop the entry when the page is modified. The returned data is
// the cache's: a view of the frame that holds the entry, or, for an entry
// that spans frames, a copy in a buffer the cache reuses. It is valid only
// until the caller's next call into the cache; callers consume it first and
// must not retain it.
func (c *Cache) Fault(key swap.PageKey) (data []byte, sum uint32, dirty bool, ok bool) {
	e, found := c.entries.Get(key)
	if !found {
		c.st.Misses++
		if c.bus.Enabled(obs.ClassCCMiss) {
			c.bus.Emit(obs.Event{
				T: c.clock.Now(), Class: obs.ClassCCMiss, Sub: obs.SubCore,
				Seg: key.Seg, Page: key.Page,
			})
		}
		return nil, 0, false, false
	}
	c.st.Hits++
	if c.bus.Enabled(obs.ClassCCHit) {
		c.bus.Emit(obs.Event{
			T: c.clock.Now(), Class: obs.ClassCCHit, Sub: obs.SubCore,
			Seg: key.Seg, Page: key.Page, Bytes: int64(e.n),
		})
	}
	if c.params.RefreshOnFault {
		// A re-reference refreshes the entry's age (LRU-like aging). The
		// ring's frame-reclamation order is positional and unchanged; only
		// the age the allocator compares against other consumers moves.
		e.insert = c.clock.Now()
	}
	return c.gathered(e), e.Sum, e.Dirty, true
}

// Peek returns the entry for key the way Fault does, but counts no hit or
// miss, emits nothing and leaves the entry's age alone: it is for audits that
// must not change the run they audit. The data is cache-owned, as Fault's.
func (c *Cache) Peek(key swap.PageKey) (data []byte, sum uint32, ok bool) {
	e, found := c.entries.Get(key)
	if !found {
		return nil, 0, false
	}
	return c.gathered(e), e.Sum, true
}

// Drop discards the entry for key if present (used when a stale copy must be
// invalidated). It does not call the drop hook: the caller initiated it.
func (c *Cache) Drop(key swap.PageKey) {
	if e, ok := c.entries.Get(key); ok {
		c.kill(e)
		c.st.Dropped++
		if c.bus.Enabled(obs.ClassCCEvict) {
			c.bus.Emit(obs.Event{
				T: c.clock.Now(), Class: obs.ClassCCEvict, Sub: obs.SubCore,
				Seg: key.Seg, Page: key.Page, Aux: 0,
			})
		}
	}
}

// kill marks an entry dead and removes it from the live index. Its bytes stay
// in its frames, unread, until the frames leave the ring; its order slot is
// nilled so the Entry struct itself can be recycled as soon as the last ring
// frame holding it is reclaimed.
func (c *Cache) kill(e *Entry) {
	if e.dead {
		return
	}
	e.dead = true
	c.liveBytes -= e.footprint(c.params)
	if e.Dirty {
		c.markClean(e)
	}
	c.entries.Delete(e.Key)
	c.order[e.oidx] = nil
}

// markClean records that a live dirty entry no longer holds the only copy of
// its page (it was written back, or it is being killed).
func (c *Cache) markClean(e *Entry) {
	e.Dirty = false
	c.dirtyBytes -= e.footprint(c.params)
	for _, f := range e.frames {
		if f.dirty--; f.dirty == 0 {
			c.reclaimable++
		}
	}
}

// OldestAge reports the insertion time of the oldest live entry; ok is false
// when the cache is empty. This makes the cache a consumer in the three-way
// memory trade.
func (c *Cache) OldestAge() (sim.Time, bool) {
	c.advanceHead()
	if c.head >= len(c.order) {
		return 0, false
	}
	return c.order[c.head].insert, true
}

func (c *Cache) advanceHead() {
	for c.head < len(c.order) && c.order[c.head] == nil {
		c.head++
	}
	// Periodically compact the order slice so it does not grow without
	// bound across a long run. Dropping interior nil slots too keeps the
	// deque's live density high; surviving entries are reindexed.
	if c.head > 1024 && c.head*2 > len(c.order) {
		kept := c.order[:0]
		for _, e := range c.order[c.head:] {
			if e == nil {
				continue
			}
			e.oidx = int32(len(kept))
			kept = append(kept, e)
		}
		// Clear the abandoned tail so it holds no stale pointers.
		for i := len(kept); i < len(c.order); i++ {
			c.order[i] = nil
		}
		c.order = kept
		c.head = 0
	}
}

// Clean writes the oldest dirty entries — about one clean batch's worth — to
// the backing store through the flush hook and marks them clean. It returns
// the number of entries cleaned (0 when nothing is dirty or no flush hook is
// installed). On a flush error the batch stays dirty.
func (c *Cache) Clean() (int, error) {
	if c.flush == nil || c.dirtyBytes == 0 {
		return 0, nil
	}
	// Skip (and periodically compact) the dead prefix once, instead of
	// re-walking an arbitrarily long run of dropped entries on every pass.
	c.advanceHead()
	batch := c.cleanBatch[:0]
	items := c.cleanItems[:0]
	// The batch stops once it holds a batch's worth, so its data fits a
	// batch and one more page; a spanning entry is gathered there.
	if c.cleanBuf == nil {
		c.cleanBuf = make([]byte, c.params.CleanBatchBytes+c.pool.PageSize())
	}
	bytes, gathered := 0, 0
	for i := c.head; i < len(c.order) && bytes < c.params.CleanBatchBytes; i++ {
		e := c.order[i]
		if e == nil || !e.Dirty {
			continue
		}
		data := c.data(e, c.cleanBuf[gathered:])
		gathered += len(data)
		batch = append(batch, e)
		items = append(items, swap.Item{Key: e.Key, Data: data, Compressed: true, Sum: e.Sum})
		bytes += e.footprint(c.params)
	}
	c.cleanBatch, c.cleanItems = batch[:0], items[:0]
	if len(batch) == 0 {
		return 0, nil
	}
	err := c.flush(items)
	clear(items) // the flush kept nothing, and neither does the cache
	if err != nil {
		return 0, err
	}
	for _, e := range batch {
		c.markClean(e)
		c.st.CleanWrites++
	}
	if c.bus.Enabled(obs.ClassCleanPass) {
		c.bus.Emit(obs.Event{
			T: c.clock.Now(), Class: obs.ClassCleanPass, Sub: obs.SubCore,
			Bytes: int64(bytes), Aux: int64(len(batch)),
		})
	}
	return len(batch), nil
}

// ReclaimableFrames reports how many frames could be released right now
// without any I/O.
func (c *Cache) ReclaimableFrames() int { return c.reclaimable }

// Prefill grows the cache to k empty frames, taking them from the pool.
// Together with MinFrames == MaxFrames == k this reproduces the original
// fixed-size compression cache for the §4.2 ablation. It panics when the
// pool cannot supply the frames (a configuration error).
func (c *Cache) Prefill(k int) {
	for len(c.frames) < k {
		id, ok := c.pool.Alloc(mem.CC)
		if !ok {
			// Invariant: Prefill runs at machine construction against a
			// freshly sized pool; exhaustion is a configuration error.
			panic("core: Prefill exceeds available memory")
		}
		c.take(id)
		c.frames = append(c.frames, c.newFrame(id))
		c.reclaimable++
		c.st.FrameGrows++
	}
}

// ReleaseOldest reclaims one frame for the pool: the oldest frame whose
// entries are all clean or dead, dropping any live clean entries it overlaps
// (they remain available on the backing store). If no such frame exists, it
// cleans the oldest dirty data first and retries. It reports false when the
// cache holds no frames, is at its configured minimum size, or cleaning is
// impossible.
func (c *Cache) ReleaseOldest() (bool, error) {
	if len(c.frames) == 0 || len(c.frames) <= c.params.MinFrames {
		return false, nil
	}
	if c.reclaimFirst() {
		return true, nil
	}
	n, err := c.Clean()
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, nil
	}
	return c.reclaimFirst(), nil
}

// reclaimFirst releases the oldest reclaimable frame, searching from the
// head of the ring toward the tail (a middle reclaim when the head frame is
// pinned by dirty data, as §4.1 allows).
func (c *Cache) reclaimFirst() bool { return c.reclaimFirstExcept(nil) }

// reclaimFirstExcept is reclaimFirst with one frame exempted (Insert
// protects the tail frame it is about to append into).
func (c *Cache) reclaimFirstExcept(skip *ccFrame) bool {
	for i, f := range c.frames {
		if f == skip || !f.reclaimable() {
			continue
		}
		for _, e := range f.entries {
			if e.dead {
				continue
			}
			// Live clean entry: drop it. It may span into a neighbouring
			// frame; dropping is still correct since the backing store has
			// the contents.
			c.kill(e)
			c.st.Dropped++
			if c.bus.Enabled(obs.ClassCCEvict) {
				c.bus.Emit(obs.Event{
					T: c.clock.Now(), Class: obs.ClassCCEvict, Sub: obs.SubCore,
					Seg: e.Key.Seg, Page: e.Key.Page, Aux: 1,
				})
			}
			if c.onDrop != nil {
				c.onDrop(e.Key)
			}
		}
		c.frames = append(c.frames[:i], c.frames[i+1:]...)
		c.reclaimable--
		c.pool.Release(f.id)
		// Every entry the frame held is now dead (live ones were killed just
		// above). Dropping the frame's reference may free the Entry struct
		// for recycling; the frame itself always recycles.
		for j, e := range f.entries {
			if e.refs--; e.refs == 0 {
				e.frames = e.frames[:0]
				c.entryPool = append(c.entryPool, e)
			}
			f.entries[j] = nil
		}
		f.entries = f.entries[:0]
		c.framePool = append(c.framePool, f)
		c.st.FrameShrinks++
		if i != 0 {
			c.st.MidReclaims++
		}
		return true
	}
	return false
}

// CheckConsistency validates the cache's internal invariants: index/ring
// agreement, byte accounting, frame occupancy, and where the live entries'
// bytes lie — each inside the frames it overlaps, none over another's. Tests
// call it after stressing the cache.
func (c *Cache) CheckConsistency() error {
	live, dirty := 0, 0
	keys := c.entries.Keys()
	for _, key := range keys {
		e, _ := c.entries.Get(key)
		if e.dead {
			return fmt.Errorf("core: dead entry %v in live index", key)
		}
		if e.Key != key {
			return fmt.Errorf("core: entry key mismatch %v vs %v", e.Key, key)
		}
		if len(e.frames) == 0 {
			return fmt.Errorf("core: live entry %v occupies no frames", key)
		}
		if e.n < 0 || int(e.n) > c.pool.PageSize() || e.start < int32(c.params.FrameHeaderBytes) || int(e.start) >= c.pool.PageSize() {
			return fmt.Errorf("core: live entry %v of %d bytes starts at %d", key, e.n, e.start)
		}
		if n := c.spanned(e); n != len(e.frames) {
			return fmt.Errorf("core: live entry %v spans %d frames, overlaps %d", key, n, len(e.frames))
		}
		live += e.footprint(c.params)
		if e.Dirty {
			dirty += e.footprint(c.params)
		}
	}
	if live != c.liveBytes {
		return fmt.Errorf("core: liveBytes %d, recomputed %d", c.liveBytes, live)
	}
	if dirty != c.dirtyBytes {
		return fmt.Errorf("core: dirtyBytes %d, recomputed %d", c.dirtyBytes, dirty)
	}
	frameSet := make(map[*ccFrame]bool, len(c.frames))
	claims := c.pool.Claims()
	reclaimable := 0
	for _, f := range c.frames {
		frameSet[f] = true
		if n := f.scanDirty(); n != f.dirty {
			return fmt.Errorf("core: frame %d counts %d dirty entries, holds %d", f.id, f.dirty, n)
		} else if n == 0 {
			reclaimable++
		}
		if f.used < c.params.FrameHeaderBytes || f.used > c.pool.PageSize() {
			return fmt.Errorf("core: frame %d occupancy %d out of range", f.id, f.used)
		}
		if err := claims.Claim(f.id, mem.CC); err != nil {
			return fmt.Errorf("core: ring frame: %w", err)
		}
		at := c.params.FrameHeaderBytes
		for _, e := range f.entries {
			if e.dead {
				continue
			}
			lo, hi, ok := c.extent(e, f)
			if !ok || lo < at || hi > f.used {
				return fmt.Errorf("core: entry %v lies at [%d, %d) of frame %d, which is used to %d past %d", e.Key, lo, hi, f.id, f.used, at)
			}
			at = hi
		}
	}
	if reclaimable != c.reclaimable {
		return fmt.Errorf("core: reclaimable frames %d, recounted %d", c.reclaimable, reclaimable)
	}
	for _, key := range keys {
		e, _ := c.entries.Get(key)
		for _, f := range e.frames {
			if !frameSet[f] {
				return fmt.Errorf("core: entry %v references a frame not in the ring", key)
			}
		}
		// Every live entry must sit in its recorded order slot (dead
		// entries' slots are nil).
		if e.oidx < 0 || int(e.oidx) >= len(c.order) || c.order[e.oidx] != e {
			return fmt.Errorf("core: live entry %v not at its order slot", key)
		}
	}
	for i, e := range c.order {
		if e != nil && int(e.oidx) != i {
			return fmt.Errorf("core: order slot %d holds entry %v with oidx %d", i, e.Key, e.oidx)
		}
	}
	return nil
}

// spanned is how many frames an entry starting where e does and as long
// needs: the one it starts in and as many more as its remainder fills.
func (c *Cache) spanned(e *Entry) int {
	rest := e.footprint(c.params) - (c.pool.PageSize() - int(e.start))
	if rest <= 0 {
		return 1
	}
	return 1 + (rest+c.frameCap()-1)/c.frameCap()
}

// extent reports the bytes, header included, that live entry e occupies in
// frame f, [lo, hi), and whether f is among e's frames.
func (c *Cache) extent(e *Entry, f *ccFrame) (lo, hi int, ok bool) {
	lo, left := int(e.start), e.footprint(c.params)
	for _, g := range e.frames {
		hi = lo + min(left, c.pool.PageSize()-lo)
		if g == f {
			return lo, hi, true
		}
		left -= hi - lo
		lo = c.params.FrameHeaderBytes
	}
	return 0, 0, false
}
