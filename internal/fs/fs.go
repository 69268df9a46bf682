// Package fs implements the simulated machine's block file system.
//
// The paper's backing store is a swap file in the Sprite file system, and the
// central complication of its §4.3 is that the file system "enforces
// transfers in multiples of a whole file system block": writing part of a
// 4-KByte block costs a 4-KByte read plus a 4-KByte write, and reading 2 KB
// within a block reads all 4 KB. This package reproduces that interface:
//
//   - Cached reads and writes go through an LRU buffer cache whose frames
//     come from the shared physical pool, so the file cache competes with
//     the VM system and the compression cache for memory (§4.2).
//   - Raw (uncached) I/O, used by the swap layers, transfers whole blocks.
//     The AllowPartialIO option relaxes this to sector granularity; it is
//     the "better interface to the backing store" ablation from §6.
//
// File contents are held authoritatively in an in-memory "platter" so the
// simulation can verify end-to-end page integrity; the buffer cache and the
// disk model contribute memory pressure and virtual-time costs.
package fs

import (
	"errors"
	"fmt"
	"sort"

	"compcache/internal/fault"
	"compcache/internal/mem"
	"compcache/internal/sim"
	"compcache/internal/stats"
)

// Device is the backing hardware the file system runs on. *disk.Disk is the
// usual implementation; *netdev.Net implements it for the paper's diskless
// mobile environment (paging over a network to a page server).
type Device interface {
	// Read performs a synchronous transfer from the device, advancing the
	// caller's clock to completion. The clock is charged even when the
	// transfer fails.
	Read(addr int64, n int) error
	// Write performs a synchronous transfer to the device.
	Write(addr int64, n int) error
	// WriteAsync queues a write without blocking; it returns the completion
	// instant. A failure of the queued write is reported immediately.
	WriteAsync(addr int64, n int) (sim.Time, error)
	// Drain advances the clock until queued operations complete.
	Drain()
	// Granularity is the device's addressing granularity in bytes (a disk
	// sector, a network packet payload).
	Granularity() int
	// Stats reports transfer counters.
	Stats() stats.Disk
}

// fileExtent is the disk address space reserved per file. Files are sparse;
// the extent only fixes the mapping from file offsets to disk addresses so
// that sequential file blocks are sequential on disk.
const fileExtent = 1 << 30

// Options configures a file system.
type Options struct {
	// BlockSize is the file-system block size; the paper's Sprite systems
	// use 4-KByte blocks, equal to the DECstation page size.
	BlockSize int

	// AllowPartialIO permits raw transfers at sector granularity instead of
	// whole blocks (ablation of the paper's §4.3 constraint).
	AllowPartialIO bool
}

// CompressedBlockCache holds evicted file-cache blocks in compressed form,
// the §6 extension ("the system could keep part or all of the file buffer
// cache in compressed format in order to improve the cache hit rate"). The
// machine package implements it on top of the compression cache.
type CompressedBlockCache interface {
	// Store offers an evicted block's (durable) contents; the cache may
	// decline (incompressible, no memory). data is the evicted frame's own
	// bytes, on loan until Store returns (mem.Pool.Lend): copy what is
	// kept. The error reports a failure of work the store triggered (e.g.
	// flushing entries to make room).
	Store(fileID int32, block int64, data []byte) (bool, error)
	// Load fetches a cached block into data, reporting whether it hit. A
	// corrupt cached copy is reported as a miss, not an error: the block is
	// durable on the device, so the caller falls back to a device read.
	Load(fileID int32, block int64, data []byte) (bool, error)
	// Invalidate drops any cached copy (the block was modified).
	Invalidate(fileID int32, block int64)
}

// FS is a simulated block file system on one device.
type FS struct {
	fsState
	opts  Options
	disk  Device
	clock *sim.Clock
	pool  *mem.Pool
	ccb   CompressedBlockCache

	// rawGran is the raw transfer granularity, fixed at New: BlockSize, or
	// the device's under AllowPartialIO. When it is a power of two — it always
	// is today — rawMask is rawGran-1 and checkRaw's alignment test is one AND;
	// otherwise rawMask is -1 and checkRaw divides.
	rawGran, rawMask int64

	// frameSource obtains a frame for the buffer cache, reclaiming one from
	// some consumer if the pool is empty. The machine wires this to the
	// replacement policy after construction.
	frameSource func(mem.Owner) (mem.FrameID, error)
}

// fsState is the file system's replay state: everything a snapshot carries.
type fsState struct {
	nextID   int32
	files    map[string]*File
	nextBase int64

	cache     map[blockKey]*cacheBlock
	lruHead   *cacheBlock // least recently used
	lruTail   *cacheBlock // most recently used
	hits      uint64
	misses    uint64
	ccHits    uint64 // misses served by the compressed block cache
	writeHits uint64
}

type blockKey struct {
	file  *File
	block int64
}

type cacheBlock struct {
	key        blockKey
	frame      mem.FrameID
	dirty      bool
	lastUse    sim.Time
	prev, next *cacheBlock
}

// File is a simulated file. Its blocks map to a contiguous disk extent, so
// block n of the file lives at disk address base + n*BlockSize.
type File struct {
	fs      *FS
	name    string
	id      int32 // identity for the compressed block cache; changes on truncate
	base    int64
	size    int64
	platter [][]byte // authoritative block contents by block number, nil = never touched; at most fileExtent/BlockSize long
}

// New creates a file system on device d, drawing cache frames from pool.
func New(opts Options, d Device, clock *sim.Clock, pool *mem.Pool) (*FS, error) {
	if opts.BlockSize <= 0 {
		return nil, fmt.Errorf("fs: BlockSize must be positive, got %d", opts.BlockSize)
	}
	if opts.BlockSize%d.Granularity() != 0 {
		return nil, fmt.Errorf("fs: BlockSize %d not a multiple of device granularity %d",
			opts.BlockSize, d.Granularity())
	}
	f := &FS{
		opts:  opts,
		disk:  d,
		clock: clock,
		pool:  pool,
		fsState: fsState{
			files: make(map[string]*File),
			cache: make(map[blockKey]*cacheBlock),
		},
	}
	f.rawGran, f.rawMask = int64(opts.BlockSize), -1
	if opts.AllowPartialIO {
		f.rawGran = int64(d.Granularity())
	}
	if f.rawGran&(f.rawGran-1) == 0 {
		f.rawMask = f.rawGran - 1
	}
	f.frameSource = func(o mem.Owner) (mem.FrameID, error) {
		id, ok := pool.Alloc(o)
		if !ok {
			return 0, fmt.Errorf("fs: no frame source wired and pool exhausted")
		}
		return id, nil
	}
	return f, nil
}

// SetFrameSource installs the policy-backed frame allocator.
func (fs *FS) SetFrameSource(f func(mem.Owner) (mem.FrameID, error)) { fs.frameSource = f }

// SetCompressedBlockCache installs the §6 compressed block cache.
func (fs *FS) SetCompressedBlockCache(c CompressedBlockCache) { fs.ccb = c }

// BlockSize reports the file-system block size.
func (fs *FS) BlockSize() int { return fs.opts.BlockSize }

// AllowPartialIO reports whether raw I/O may be sub-block.
func (fs *FS) AllowPartialIO() bool { return fs.opts.AllowPartialIO }

// CacheStats reports buffer-cache hits, misses and write hits.
func (fs *FS) CacheStats() (hits, misses uint64) { return fs.hits, fs.misses }

// CompressedCacheHits reports how many buffer-cache misses were served by
// the compressed block cache instead of the device.
func (fs *FS) CompressedCacheHits() uint64 { return fs.ccHits }

// CacheLen reports the number of cached blocks.
func (fs *FS) CacheLen() int { return len(fs.cache) }

// Create creates (or truncates) a file.
func (fs *FS) Create(name string) *File {
	if f, ok := fs.files[name]; ok {
		f.platter = nil
		f.size = 0
		fs.dropFileBlocks(f)
		// A fresh identity orphans any compressed-cache entries for the old
		// contents.
		f.id = fs.nextID
		fs.nextID++
		return f
	}
	f := &File{
		fs:   fs,
		name: name,
		id:   fs.nextID,
		base: fs.nextBase,
	}
	fs.nextID++
	fs.nextBase += fileExtent
	fs.files[name] = f
	return f
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: file %q does not exist", name)
	}
	return f, nil
}

// Name reports the file's name.
func (f *File) Name() string { return f.name }

// Size reports the file's logical size (highest byte written + 1).
func (f *File) Size() int64 { return f.size }

// ---------------------------------------------------------------------------
// Cached I/O (workload file access)

// ReadAt reads len(p) bytes at offset off through the buffer cache. Reads
// beyond the written extent return zero bytes, matching sparse-file
// semantics.
func (f *File) ReadAt(p []byte, off int64) error {
	if off < 0 {
		// Invariant: callers derive offsets from non-negative loop indices;
		// a negative offset is a programming error, not a runtime fault.
		panic("fs: negative offset")
	}
	bs := int64(f.fs.opts.BlockSize)
	for len(p) > 0 {
		block := off / bs
		inOff := int(off % bs)
		n := int(bs) - inOff
		if n > len(p) {
			n = len(p)
		}
		cb, err := f.fs.getBlock(f, block, true)
		if err != nil {
			return err
		}
		copy(p[:n], f.fs.pool.Bytes(cb.frame)[inOff:inOff+n])
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// WriteAt writes len(p) bytes at offset off through the buffer cache. A
// write that only partially covers an uncached block pays the §4.3
// read-modify-write: the whole block is read from disk first.
func (f *File) WriteAt(p []byte, off int64) error {
	if off < 0 {
		// Invariant: callers derive offsets from non-negative loop indices;
		// a negative offset is a programming error, not a runtime fault.
		panic("fs: negative offset")
	}
	bs := int64(f.fs.opts.BlockSize)
	for len(p) > 0 {
		block := off / bs
		inOff := int(off % bs)
		n := int(bs) - inOff
		if n > len(p) {
			n = len(p)
		}
		full := inOff == 0 && n == int(bs)
		cb, err := f.fs.getBlock(f, block, !full)
		if err != nil {
			return err
		}
		copy(f.fs.pool.Bytes(cb.frame)[inOff:inOff+n], p[:n])
		cb.dirty = true
		if f.fs.ccb != nil {
			f.fs.ccb.Invalidate(f.id, block)
		}
		// Keep the platter authoritative immediately; the dirty flag defers
		// only the disk write's cost, not the contents.
		copy(f.platterBlock(block)[inOff:inOff+n], p[:n])
		if end := off + int64(n); end > f.size {
			f.size = end
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// Sync writes all dirty cached blocks of the file system to disk, in disk
// address order (the cheapest schedule). On a device error the remaining
// blocks stay dirty and the error is returned.
func (fs *FS) Sync() error {
	var dirty []*cacheBlock
	for cb := fs.lruHead; cb != nil; cb = cb.next {
		if cb.dirty {
			dirty = append(dirty, cb)
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		return dirty[i].key.file.addr(dirty[i].key.block) < dirty[j].key.file.addr(dirty[j].key.block)
	})
	for _, cb := range dirty {
		if err := fs.disk.Write(cb.key.file.addr(cb.key.block), fs.opts.BlockSize); err != nil {
			return err
		}
		cb.dirty = false
	}
	return nil
}

// Name identifies the buffer cache in the replacement policy ("fs").
func (fs *FS) Name() string { return "fs" }

// OldestAge reports the last-use instant of the LRU cached block. ok is
// false when the cache is empty. This makes the buffer cache a consumer in
// the three-way memory trade.
func (fs *FS) OldestAge() (sim.Time, bool) {
	if fs.lruHead == nil {
		return 0, false
	}
	return fs.lruHead.lastUse, true
}

// ReleaseOldest evicts the LRU cached block, writing it back first if dirty,
// and returns its frame to the pool. It reports false when the cache is
// empty.
func (fs *FS) ReleaseOldest() (bool, error) {
	cb := fs.lruHead
	if cb == nil {
		return false, nil
	}
	return true, fs.evict(cb)
}

// DropCaches evicts every cached block (writing back dirty ones); used by
// benchmarks to start runs cold.
func (fs *FS) DropCaches() error {
	if err := fs.Sync(); err != nil {
		return err
	}
	for fs.lruHead != nil {
		if err := fs.evict(fs.lruHead); err != nil {
			return err
		}
	}
	return nil
}

func (fs *FS) evict(cb *cacheBlock) error {
	if cb.dirty {
		// The platter already holds the authoritative contents, so a failed
		// writeback loses no simulated data; the eviction completes and the
		// device error propagates for the caller to account.
		err := fs.disk.Write(cb.key.file.addr(cb.key.block), fs.opts.BlockSize)
		cb.dirty = false
		if err != nil {
			fs.lruRemove(cb)
			delete(fs.cache, cb.key)
			fs.pool.Release(cb.frame)
			return err
		}
	}
	fs.lruRemove(cb)
	delete(fs.cache, cb.key)
	if fs.ccb == nil {
		fs.pool.Release(cb.frame)
		return nil
	}
	// The block is durable on the device now; keep a compressed copy in
	// memory so a re-read can skip the device (§6). Release the frame first
	// so the compressed cache can absorb it, and lend it the frame's bytes
	// meanwhile — the same ordering and the same loan as VM.Evict.
	_, err := fs.ccb.Store(cb.key.file.id, cb.key.block, fs.pool.Lend(cb.frame))
	fs.pool.EndLoan()
	return err
}

// dropFileBlocks forgets f's cached blocks, releasing their frames in LRU
// order: the pool's free list, and so every snapshot, records that order.
func (fs *FS) dropFileBlocks(f *File) {
	for cb := fs.lruHead; cb != nil; {
		next := cb.next
		if cb.key.file == f {
			fs.lruRemove(cb)
			delete(fs.cache, cb.key)
			fs.pool.Release(cb.frame)
		}
		cb = next
	}
}

// getBlock returns the cache entry for (f, block), faulting it in from disk
// when fill is true (a full-block overwrite skips the disk read). On a
// device error the frame is returned to the pool and no cache entry is left
// behind.
func (fs *FS) getBlock(f *File, block int64, fill bool) (*cacheBlock, error) {
	key := blockKey{f, block}
	if cb, ok := fs.cache[key]; ok {
		fs.hits++
		fs.lruTouch(cb)
		return cb, nil
	}
	fs.misses++
	frame, err := fs.frameSource(mem.FS)
	if err != nil {
		return nil, err
	}
	cb := &cacheBlock{key: key, frame: frame}
	if fill {
		hit := false
		if fs.ccb != nil {
			hit, err = fs.ccb.Load(f.id, block, fs.pool.Bytes(frame))
			if err != nil {
				fs.pool.Release(frame)
				return nil, err
			}
		}
		if hit {
			fs.ccHits++
		} else {
			if err := fs.disk.Read(f.addr(block), fs.opts.BlockSize); err != nil {
				fs.pool.Release(frame)
				return nil, err
			}
			copy(fs.pool.Bytes(frame), f.platterBlock(block))
		}
	}
	fs.cache[key] = cb
	fs.lruAppend(cb)
	return cb, nil
}

// ---------------------------------------------------------------------------
// Raw I/O (swap layers; bypasses the buffer cache)

// checkRaw validates raw transfer geometry against the whole-block rule and
// the file's disk extent.
func (fs *FS) checkRaw(off int64, n int) {
	gran := fs.rawGran
	misaligned := (off|int64(n))&fs.rawMask != 0
	if fs.rawMask < 0 {
		misaligned = off%gran != 0 || int64(n)%gran != 0
	}
	if misaligned {
		// Invariant: the swap layers size every raw transfer from BlockSize
		// (or sector size under AllowPartialIO) at construction time, so a
		// misaligned transfer is a programming error in a swap layer, not a
		// condition that can arise from workload data or injected faults.
		panic(fmt.Sprintf("fs: raw I/O of %d bytes at %d violates %d-byte transfer granularity",
			n, off, gran))
	}
	if off < 0 || n < 0 || off+int64(n) > fileExtent {
		// Invariant: a swap file that outgrows its extent is an experiment
		// sizing error; past the extent the transfer would land on the next
		// file's disk addresses.
		panic(fmt.Sprintf("fs: raw I/O of %d bytes at %d leaves the file's %d-byte extent", n, off, int64(fileExtent)))
	}
}

// RawRead reads n bytes at off directly from disk into p (len(p) >= n),
// bypassing the cache. Geometry must respect the transfer granularity. On a
// device error p is left unfilled.
func (f *File) RawRead(p []byte, off int64, n int) error {
	f.fs.checkRaw(off, n)
	if err := f.fs.disk.Read(f.base+off, n); err != nil {
		return err
	}
	f.copyOut(p, off, n)
	return nil
}

// RawView is RawRead without the copy: when [off, off+n) lies in one
// platter block it charges the device exactly as RawRead does and returns
// that block's own bytes, with ok set. The view is read-only and valid until
// the file's next write or truncation. A range that crosses a block boundary
// charges nothing and reports ok=false: the caller reads it with RawRead. A
// device error is RawRead's, with ok set and nothing lent.
func (f *File) RawView(off int64, n int) (view []byte, ok bool, err error) {
	bs := int64(f.fs.opts.BlockSize)
	in := off % bs
	if in+int64(n) > bs {
		return nil, false, nil
	}
	f.fs.checkRaw(off, n)
	if err := f.fs.disk.Read(f.base+off, n); err != nil {
		return nil, true, err
	}
	return f.platterBlock(off / bs)[in : in+int64(n) : in+int64(n)], true, nil
}

// RawReadStaged is RawRead without the copy, for a caller that reads the
// bytes it needs afterwards with ReadStaged: it makes RawRead's geometry
// check and device charge, and returns its error.
func (f *File) RawReadStaged(off int64, n int) error {
	f.fs.checkRaw(off, n)
	return f.fs.disk.Read(f.base+off, n)
}

// RawWrite synchronously writes n bytes from p at off, bypassing the cache.
func (f *File) RawWrite(p []byte, off int64, n int) error {
	f.fs.checkRaw(off, n)
	if err := f.fs.disk.Write(f.base+off, n); err != nil {
		f.applyTorn(p, off, err)
		return err
	}
	f.copyIn(p, off, n)
	return nil
}

// RawWriteAsync queues a raw write on the device without blocking the
// caller; it returns the completion instant. The platter is updated only
// when the queued write will complete, so a failed write leaves the old
// contents — the caller must not assume the new data is durable.
func (f *File) RawWriteAsync(p []byte, off int64, n int) (sim.Time, error) {
	f.fs.checkRaw(off, n)
	done, err := f.fs.disk.WriteAsync(f.base+off, n)
	if err != nil {
		f.applyTorn(p, off, err)
		return done, err
	}
	f.copyIn(p, off, n)
	return done, nil
}

// applyTorn applies the surviving prefix of a crash-torn write to the media
// image: a power cut mid-transfer leaves exactly the whole-sector prefix the
// device reported, and nothing else, on the platter. Every other write
// failure leaves the old contents untouched.
func (f *File) applyTorn(p []byte, off int64, err error) {
	var ce *fault.CrashError
	if !errors.As(err, &ce) || ce.Survived <= 0 {
		return
	}
	n := ce.Survived
	if n > len(p) {
		n = len(p)
	}
	f.copyIn(p[:n], off, n)
}

// WriteStage stores bytes at off without charging any device cost: the data
// sits in a memory buffer (whose frames the caller accounts for separately)
// until RawWriteStaged flushes the region. The log-structured store uses it
// for its pinned segment buffer.
func (f *File) WriteStage(off int64, data []byte) {
	f.copyIn(data, off, len(data))
}

// ReadStaged copies bytes back out of the file image without charging any
// device cost — for data the caller knows is buffer-resident (staged and
// not yet flushed) or already paid for (a just-read region).
func (f *File) ReadStaged(off int64, buf []byte) {
	f.copyOut(buf, off, len(buf))
}

// RawWriteStaged charges one asynchronous device write for a region whose
// contents were previously placed with WriteStage. Geometry rules are those
// of RawWrite.
func (f *File) RawWriteStaged(off int64, n int) (sim.Time, error) {
	f.fs.checkRaw(off, n)
	return f.fs.disk.WriteAsync(f.base+off, n)
}

func (f *File) addr(block int64) int64 { return f.base + block*int64(f.fs.opts.BlockSize) }

// platterBlock returns block's contents, materializing a zero block (and
// the table up to it) on first touch.
func (f *File) platterBlock(block int64) []byte {
	if uint64(block) < uint64(len(f.platter)) && f.platter[block] != nil {
		return f.platter[block]
	}
	if block < 0 || block >= fileExtent/int64(f.fs.opts.BlockSize) {
		// Invariant: checkRaw bounds raw transfers and snapshot/image loading
		// rejects such blocks, so only a cached access past the extent —
		// a workload bug — gets here.
		panic(fmt.Sprintf("fs: block %d of %q lies outside the file's extent", block, f.name))
	}
	for int64(len(f.platter)) <= block {
		f.platter = append(f.platter, nil)
	}
	f.platter[block] = make([]byte, f.fs.opts.BlockSize) // once per block over a run
	return f.platter[block]
}

func (f *File) copyIn(p []byte, off int64, n int) {
	bs := int64(f.fs.opts.BlockSize)
	for done := 0; done < n; {
		block := (off + int64(done)) / bs
		inOff := int((off + int64(done)) % bs)
		c := int(bs) - inOff
		if c > n-done {
			c = n - done
		}
		copy(f.platterBlock(block)[inOff:inOff+c], p[done:done+c])
		done += c
	}
	if end := off + int64(n); end > f.size {
		f.size = end
	}
}

func (f *File) copyOut(p []byte, off int64, n int) {
	bs := int64(f.fs.opts.BlockSize)
	for done := 0; done < n; {
		block := (off + int64(done)) / bs
		inOff := int((off + int64(done)) % bs)
		c := int(bs) - inOff
		if c > n-done {
			c = n - done
		}
		copy(p[done:done+c], f.platterBlock(block)[inOff:inOff+c])
		done += c
	}
}

// ---------------------------------------------------------------------------
// LRU list plumbing

func (fs *FS) lruAppend(cb *cacheBlock) {
	cb.lastUse = fs.clock.Now()
	cb.prev = fs.lruTail
	cb.next = nil
	if fs.lruTail != nil {
		fs.lruTail.next = cb
	} else {
		fs.lruHead = cb
	}
	fs.lruTail = cb
}

func (fs *FS) lruRemove(cb *cacheBlock) {
	if cb.prev != nil {
		cb.prev.next = cb.next
	} else {
		fs.lruHead = cb.next
	}
	if cb.next != nil {
		cb.next.prev = cb.prev
	} else {
		fs.lruTail = cb.prev
	}
	cb.prev, cb.next = nil, nil
}

func (fs *FS) lruTouch(cb *cacheBlock) {
	fs.lruRemove(cb)
	fs.lruAppend(cb)
}
