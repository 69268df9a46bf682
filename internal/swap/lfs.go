package swap

import (
	"fmt"
	"hash/crc32"

	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/snap"
	"compcache/internal/stats"
)

// LFS is a log-structured backing store for uncompressed pages, modelling
// paging into Sprite LFS — the alternative the paper weighs against its own
// clustered store: "Sprite LFS could alleviate the problem of seeks between
// pageouts by grouping multiple pages into a single segment. However, it is
// not clear that paging into LFS would be desirable under heavy paging
// load. LFS requires significant memory for buffers, and for LFS to clean
// segments containing swap files, it must copy more 'live' blocks than for
// other types of data" (§5.1).
//
// All three of those properties are reproduced:
//
//   - pageouts accumulate in an in-memory segment buffer and reach the disk
//     as one large sequential write per segment — no per-page seeks;
//   - the segment buffer's frames are pinned from the shared pool, so LFS
//     genuinely costs memory that applications would otherwise use;
//   - rewritten pages leave dead blocks behind, and a cleaner must read
//     partly-live segments and copy their live pages forward before the
//     space can be reused.
type LFSConfig struct {
	// PageSize is the VM page size.
	PageSize int

	// SegmentBytes is the log segment size; Sprite LFS used large segments
	// (hundreds of KB) to amortize positioning. Default 256 KB.
	SegmentBytes int

	// Durable enables the recoverable on-media format: each segment starts
	// with a header block carrying a sequence number and a per-slot record
	// table (PageKey, length, CRC-32), written atomically with the segment's
	// data as one device transfer. RecoverLFS can then rebuild the store
	// from the media image after a crash. The header block costs one file
	// block of every segment and changes every write's size and timing, so
	// the format is off by default; the machine enables it automatically
	// when crash injection is configured.
	Durable bool
}

func (c *LFSConfig) setDefaults() {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 256 * 1024
	}
}

func (c LFSConfig) validate(blockSize int) error {
	if c.PageSize <= 0 || c.PageSize%blockSize != 0 {
		return fmt.Errorf("swap: lfs page size %d incompatible with block size %d", c.PageSize, blockSize)
	}
	if c.SegmentBytes < c.PageSize || c.SegmentBytes%c.PageSize != 0 {
		return fmt.Errorf("swap: lfs segment size %d must be a multiple of the page size", c.SegmentBytes)
	}
	if c.Durable {
		pages := (c.SegmentBytes - blockSize) / c.PageSize
		if pages < 1 {
			return fmt.Errorf("swap: lfs segment size %d leaves no room for pages after the %d-byte header block",
				c.SegmentBytes, blockSize)
		}
		if lfsHeadBytes+lfsSlotBytes*pages > blockSize {
			return fmt.Errorf("swap: lfs header for %d pages does not fit one %d-byte block", pages, blockSize)
		}
	}
	return nil
}

// lfsLoc locates a page in the log.
type lfsLoc struct {
	seg int32
	idx int32 // page index within the segment
}

// lfsSegment is the bookkeeping for one on-disk segment.
type lfsSegment struct {
	pages []PageKey // key per page slot; stale slots hold a tombstone
	sums  []uint32  // CRC-32 per slot (durable format only)
	live  int
	seq   uint64 // sequence number stamped at flush (durable format only)
}

// lfsTombstone marks a dead slot.
var lfsTombstone = PageKey{Seg: -1 << 30, Page: -1}

// lfsPending is a cleaned victim segment awaiting its reuse barrier: it may
// not be overwritten until the flush carrying the last of its forwarded live
// pages has reached the media, or a crash in the window would lose
// acknowledged-durable pages.
type lfsPending struct {
	seg      int32
	afterSeq uint64 // reusable once this sequence number is durable
}

// LFS is the log-structured store.
type LFS struct {
	lfsState
	cfg  LFSConfig
	fsys *fs.FS
	file *fs.File
	pool *mem.Pool

	pagesPerSeg  int
	headerBytes  int           // media bytes reserved for the segment header (durable format)
	bufferFrames []mem.FrameID // pinned segment buffer

	loc     PageTable[lfsLoc] // index of the live slots in segs
	inClean bool              // true only inside a cleaning pass

	// Cleaner scratch, reused across passes so steady-state cleaning
	// allocates nothing: recycled segment bookkeeping objects and the
	// page-copy buffer.
	segPool   []*lfsSegment
	copyBuf   []byte
	header    segmentHeader // Flush's durable-format header, and its encoder
	headerEnc *snap.Codec
}

// lfsState is the store's replay state: everything a snapshot carries.
type lfsState struct {
	segs    []*lfsSegment
	free    []int32 // free segment numbers
	cur     int32   // segment being filled (in the buffer)
	curUsed int     // pages staged in the buffer

	// Durable-format state: the open segment's full media image (header
	// block plus staged pages) accumulates here and reaches the device as
	// one write, so a crash tears it like the single transfer it is; seq
	// numbers order segments for recovery; cleaned victims wait on pending
	// until their forwarded pages are durable.
	seq     uint64
	stage   []byte
	pending []lfsPending

	st stats.Swap
}

// NewLFS creates a log-structured store. The segment buffer's frames are
// taken from pool immediately and never returned — the "significant memory
// for buffers" the paper warns about.
func NewLFS(cfg LFSConfig, fsys *fs.FS, pool *mem.Pool) (*LFS, error) {
	l, err := makeLFS(cfg, fsys, pool, nil)
	if err != nil {
		return nil, err
	}
	l.cur = l.allocSegment()
	if l.durable() {
		l.seq = 1
	}
	return l, nil
}

// makeLFS builds the store around an existing file (recovery) or a fresh one.
func makeLFS(cfg LFSConfig, fsys *fs.FS, pool *mem.Pool, file *fs.File) (*LFS, error) {
	cfg.setDefaults()
	if err := cfg.validate(fsys.BlockSize()); err != nil {
		return nil, err
	}
	if file == nil {
		file = fsys.Create("swap.lfs")
	}
	l := &LFS{
		cfg:  cfg,
		fsys: fsys,
		file: file,
		pool: pool,
	}
	if cfg.Durable {
		l.headerBytes = fsys.BlockSize()
		l.stage = make([]byte, cfg.SegmentBytes)
		l.headerEnc = snap.Encoder(new(snap.Writer))
	}
	l.pagesPerSeg = (cfg.SegmentBytes - l.headerBytes) / cfg.PageSize
	for i := 0; i < l.pagesPerSeg; i++ {
		id, ok := pool.Alloc(mem.Kernel)
		if !ok {
			return nil, fmt.Errorf("swap: not enough memory for the LFS segment buffer (%d pages)", l.pagesPerSeg)
		}
		l.bufferFrames = append(l.bufferFrames, id)
	}
	return l, nil
}

func (l *LFS) durable() bool { return l.cfg.Durable }

// BufferFrames reports how many page frames the segment buffer pins.
func (l *LFS) BufferFrames() int { return len(l.bufferFrames) }

// Stats returns a snapshot of the store's counters; FragsLive/FragsFree
// report live and dead page slots in on-disk segments.
func (l *LFS) Stats() stats.Swap {
	st := l.st
	var live, total int
	for i, s := range l.segs {
		if int32(i) == l.cur || s == nil {
			continue
		}
		live += s.live
		total += len(s.pages)
	}
	st.FragsLive = uint64(live)
	st.FragsFree = uint64(total - live)
	return st
}

// newSegment returns segment bookkeeping, recycling an object the cleaner
// freed when one is available; the make fallback runs only until the pool
// warms up.
func (l *LFS) newSegment() *lfsSegment {
	if n := len(l.segPool); n > 0 {
		s := l.segPool[n-1]
		l.segPool[n-1] = nil
		l.segPool = l.segPool[:n-1]
		s.pages = s.pages[:0]
		s.sums = s.sums[:0]
		s.live = 0
		s.seq = 0
		return s
	}
	s := &lfsSegment{pages: make([]PageKey, 0, l.pagesPerSeg)}
	if l.durable() {
		s.sums = make([]uint32, 0, l.pagesPerSeg)
	}
	return s
}

// allocSegment returns a free segment number, growing the log when none is
// free.
func (l *LFS) allocSegment() int32 {
	if n := len(l.free); n > 0 {
		seg := l.free[n-1]
		l.free = l.free[:n-1]
		l.segs[seg] = l.newSegment()
		return seg
	}
	l.segs = append(l.segs, l.newSegment())
	return int32(len(l.segs) - 1)
}

// promote moves cleaned victim segments whose reuse barrier has been reached
// (every forwarded live page durable at or before sequence number upTo) onto
// the free list.
func (l *LFS) promote(upTo uint64) {
	kept := l.pending[:0]
	for _, p := range l.pending {
		if p.afterSeq <= upTo {
			l.free = append(l.free, p.seg)
		} else {
			kept = append(kept, p)
		}
	}
	l.pending = kept
}

// Write appends a page to the log buffer; a full buffer is flushed to disk
// as one sequential segment write.
func (l *LFS) Write(key PageKey, data []byte) error {
	if len(data) != l.cfg.PageSize {
		// Invariant: the VM layer always pages out whole pages.
		panic(fmt.Sprintf("swap: LFS.Write of %d bytes, want a whole page", len(data)))
	}
	seg := l.segs[l.cur]
	if len(seg.pages) >= l.pagesPerSeg {
		// The open segment's slot table is full but its flush failed (a
		// failed flush leaves the buffer intact for the error to propagate);
		// appending another slot would spill onto the next segment's media
		// addresses.
		return fmt.Errorf("swap: LFS segment buffer still full after a failed flush")
	}
	l.Invalidate(key) // supersede any previous copy (disk or staged)
	idx := int32(len(seg.pages))
	seg.pages = append(seg.pages, key)
	seg.live++
	l.loc.Set(key, lfsLoc{seg: l.cur, idx: idx})
	if l.durable() {
		seg.sums = append(seg.sums, crc32.ChecksumIEEE(data))
		copy(l.stage[l.headerBytes+int(idx)*l.cfg.PageSize:], data)
	} else {
		// Store the bytes at their eventual on-disk position now (platter
		// write-through); the device cost is charged at flush.
		l.file.WriteStage(l.dataOff(l.cur, idx), data)
	}
	l.curUsed++
	if l.curUsed >= l.pagesPerSeg {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	if !l.inClean {
		l.st.PagesOut++
	}
	return nil
}

// Flush writes the partially or fully filled segment buffer to disk as one
// asynchronous sequential operation and opens a new segment. In the durable
// format the transfer includes the segment's header block, so header and
// data are committed — or torn — together.
func (l *LFS) Flush() error {
	if l.curUsed == 0 {
		return nil
	}
	if l.durable() {
		seg := l.segs[l.cur]
		seg.seq = l.seq
		l.encodeHeader(seg)
		n := l.headerBytes + l.curUsed*l.cfg.PageSize
		if _, err := l.file.RawWriteAsync(l.stage[:n], l.segOff(l.cur), n); err != nil {
			return err
		}
		l.promote(l.seq)
		l.seq++
	} else {
		n := l.curUsed * l.cfg.PageSize
		if _, err := l.file.RawWriteStaged(l.dataOff(l.cur, 0), n); err != nil {
			return err
		}
	}
	l.curUsed = 0
	l.cur = l.allocSegment()
	return l.maybeClean()
}

// Read fetches a page. Pages still in the segment buffer are served from
// memory (they have not left the machine yet); pages on disk cost one
// whole-page read.
func (l *LFS) Read(key PageKey, buf []byte) (bool, error) {
	pos, ok := l.loc.Get(key)
	if !ok {
		return false, nil
	}
	if pos.seg == l.cur {
		if l.durable() {
			off := l.headerBytes + int(pos.idx)*l.cfg.PageSize
			copy(buf, l.stage[off:off+l.cfg.PageSize])
		} else {
			l.file.ReadStaged(l.dataOff(pos.seg, pos.idx), buf)
		}
		l.st.PagesIn++
		return true, nil
	}
	if err := l.file.RawRead(buf, l.dataOff(pos.seg, pos.idx), l.cfg.PageSize); err != nil {
		return false, err
	}
	l.st.PagesIn++
	return true, nil
}

// Has reports whether the store holds a copy of the page.
func (l *LFS) Has(key PageKey) bool { return l.loc.Has(key) }

// Invalidate marks the page's copy dead.
func (l *LFS) Invalidate(key PageKey) {
	pos, ok := l.loc.Get(key)
	if !ok {
		return
	}
	seg := l.segs[pos.seg]
	seg.pages[pos.idx] = lfsTombstone
	seg.live--
	l.loc.Delete(key)
}

// maybeClean runs the segment cleaner once garbage dominates: four
// segments' worth of dead pages on disk. The log grows rather than fills,
// so this bounds its size without constant copying.
func (l *LFS) maybeClean() error {
	var dead int
	for i, s := range l.segs {
		if int32(i) != l.cur && s != nil {
			dead += len(s.pages) - s.live
		}
	}
	if dead < 4*l.pagesPerSeg {
		return nil
	}
	_, err := l.clean()
	return err
}

// clean copies the live pages of the emptiest on-disk segments forward into
// the log and frees those segments. This is the paper's warning made
// concrete: swap segments stay relatively live, so cleaning copies a lot.
// A device error aborts the pass: segments already processed stay freed,
// the victim being copied keeps its remaining live pages.
//
// In the durable format a victim is not freed immediately: its media image
// is the only durable copy of its forwarded pages until the flush carrying
// them completes, so the victim parks on the pending list and is promoted to
// the free list only once that flush's sequence number is on the media.
func (l *LFS) clean() (bool, error) {
	if l.inClean {
		return false, nil
	}
	l.inClean = true
	defer func() { l.inClean = false }()
	l.st.GCs++

	// Pick up to two victim segments — emptiest first, lowest segment
	// number on ties, never the current one. A selection scan replaces the
	// old collect-and-sort so a steady-state cleaning pass allocates
	// nothing.
	v0, v1 := int32(-1), int32(-1)
	for i, s := range l.segs {
		if int32(i) == l.cur || s == nil || len(s.pages) == 0 {
			continue
		}
		switch {
		case v0 < 0 || s.live < l.segs[v0].live:
			v0, v1 = int32(i), v0
		case v1 < 0 || s.live < l.segs[v1].live:
			v1 = int32(i)
		}
	}
	if v0 < 0 {
		return false, nil
	}
	if cap(l.copyBuf) < l.cfg.PageSize {
		l.copyBuf = make([]byte, l.cfg.PageSize)
	}
	buf := l.copyBuf[:l.cfg.PageSize]
	freed := false
	for _, v := range [...]int32{v0, v1} {
		if v < 0 {
			continue
		}
		seg := l.segs[v]
		if seg.live > 0 {
			// One sequential sweep reads the whole victim segment; the live
			// pages are then taken from the media image it paid for.
			n := len(seg.pages) * l.cfg.PageSize
			if err := l.file.RawReadStaged(l.dataOff(v, 0), n); err != nil {
				return freed, err
			}
			for idx, key := range seg.pages {
				if key == lfsTombstone {
					continue
				}
				l.file.ReadStaged(l.dataOff(v, int32(idx)), buf)
				l.st.GCBytesCopied += uint64(l.cfg.PageSize)
				// Rewriting moves the page into the current buffer.
				if err := l.Write(key, buf); err != nil {
					return freed, err
				}
			}
		}
		l.segs[v] = nil
		l.segPool = append(l.segPool, seg)
		if l.durable() {
			bar := l.seq
			if l.curUsed == 0 && bar > 0 {
				// Everything forwarded from this victim is already durable.
				bar--
			}
			l.pending = append(l.pending, lfsPending{seg: v, afterSeq: bar})
		} else {
			l.free = append(l.free, v)
		}
		freed = true
	}
	if l.durable() {
		l.promote(l.seq - 1)
		// The format that has to survive a crash audits the location map
		// against the segment tables after every pass, turning silent drift
		// into an immediate error.
		if err := l.CheckConsistency(); err != nil {
			return freed, err
		}
	}
	return freed, nil
}

// segOff is the media byte offset of segment seg in the swap file.
func (l *LFS) segOff(seg int32) int64 {
	return int64(seg) * int64(l.cfg.SegmentBytes)
}

// dataOff is the media byte offset of page idx of segment seg (past the
// header block in the durable format).
func (l *LFS) dataOff(seg, idx int32) int64 {
	return l.segOff(seg) + int64(l.headerBytes) + int64(idx)*int64(l.cfg.PageSize)
}

// CheckConsistency validates the location map against the segment tables.
func (l *LFS) CheckConsistency() error {
	for _, key := range l.loc.Keys() {
		pos, _ := l.loc.Get(key)
		if int(pos.seg) >= len(l.segs) || l.segs[pos.seg] == nil {
			return fmt.Errorf("swap: lfs %v points to freed segment %d", key, pos.seg)
		}
		seg := l.segs[pos.seg]
		if int(pos.idx) >= len(seg.pages) || seg.pages[pos.idx] != key {
			return fmt.Errorf("swap: lfs slot mismatch for %v", key)
		}
	}
	for i, seg := range l.segs {
		if seg == nil {
			continue
		}
		if len(seg.pages) > l.pagesPerSeg {
			return fmt.Errorf("swap: lfs segment %d holds %d slots, capacity %d", i, len(seg.pages), l.pagesPerSeg)
		}
		if l.durable() && len(seg.sums) != len(seg.pages) {
			return fmt.Errorf("swap: lfs segment %d has %d sums for %d slots", i, len(seg.sums), len(seg.pages))
		}
		live := 0
		for _, key := range seg.pages {
			if key == lfsTombstone {
				continue
			}
			live++
			if pos, ok := l.loc.Get(key); !ok || pos.seg != int32(i) {
				return fmt.Errorf("swap: lfs live slot for %v not in location map", key)
			}
		}
		if live != seg.live {
			return fmt.Errorf("swap: lfs segment %d live counter %d, recounted %d", i, seg.live, live)
		}
	}
	for _, p := range l.pending {
		if int(p.seg) < 0 || int(p.seg) >= len(l.segs) || l.segs[p.seg] != nil {
			return fmt.Errorf("swap: lfs pending segment %d is out of range or still registered", p.seg)
		}
	}
	for _, f := range l.free {
		if int(f) < 0 || int(f) >= len(l.segs) || l.segs[f] != nil {
			return fmt.Errorf("swap: lfs free segment %d is out of range or still registered", f)
		}
	}
	if int(l.cur) < 0 || int(l.cur) >= len(l.segs) || l.segs[l.cur] == nil {
		return fmt.Errorf("swap: lfs open segment %d is not allocated", l.cur)
	}
	if l.curUsed != len(l.segs[l.cur].pages) {
		return fmt.Errorf("swap: lfs buffer stages %d pages, open segment has %d slots", l.curUsed, len(l.segs[l.cur].pages))
	}
	return nil
}
