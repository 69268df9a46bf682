package swap

import (
	"fmt"
	"math"
	"slices"

	"compcache/internal/fault"
	"compcache/internal/fs"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/stats"
)

// ClusterConfig configures a Clustered store.
type ClusterConfig struct {
	// PageSize is the uncompressed page size (raw items must be exactly
	// this long).
	PageSize int

	// FragSize is the uniform fragment size compressed pages are padded to;
	// the paper uses 1 KByte.
	FragSize int

	// ClusterBytes is the target size of one clustered write; the paper
	// writes 32 KBytes of compressed pages at once.
	ClusterBytes int

	// SpanBlocks controls whether a page's fragments may cross file-block
	// boundaries. When false, pages are padded to the next block, which
	// "increases fragmentation and the effective bandwidth for writes to
	// the backing store correspondingly decreases" (§4.3); when true, a
	// fault on a spanning page must read both blocks.
	SpanBlocks bool

	// GCTriggerFrac runs a compaction pass when garbage (padding plus freed
	// fragments) exceeds this fraction of the swap file's span and at least
	// one cluster's worth of garbage exists. Zero selects the default 0.5.
	GCTriggerFrac float64

	// CommitRecords enables the recoverable on-media format: every clustered
	// write appends a checksummed commit record (sequence number plus the
	// batch's page identities, extents, and data checksums) in trailing
	// fragments of the cluster, and garbage collection switches from the
	// in-place dense rewrite to crash-safe relocation that never overwrites
	// live data. RecoverClustered can then rebuild the page map from the
	// media image. Records cost space and the relocating GC copies less
	// densely, so the format is off by default; the machine enables it
	// automatically when crash injection is configured.
	//
	// The format assumes Item.Sum is core.Checksum (CRC-32) of Item.Data,
	// which is what the machine stores; recovery uses it to detect torn
	// data.
	CommitRecords bool
}

func (c *ClusterConfig) setDefaults() {
	if c.FragSize == 0 {
		c.FragSize = 1024
	}
	if c.ClusterBytes == 0 {
		c.ClusterBytes = 32 * 1024
	}
	if c.GCTriggerFrac == 0 {
		c.GCTriggerFrac = 0.5
	}
}

// validate checks the configuration against the file system's geometry.
func (c ClusterConfig) validate(blockSize int) error {
	if c.PageSize <= 0 || c.PageSize%blockSize != 0 {
		return fmt.Errorf("swap: page size %d incompatible with block size %d", c.PageSize, blockSize)
	}
	if c.FragSize <= 0 || blockSize%c.FragSize != 0 {
		return fmt.Errorf("swap: fragment size %d must divide block size %d", c.FragSize, blockSize)
	}
	if c.ClusterBytes < blockSize || c.ClusterBytes%blockSize != 0 {
		return fmt.Errorf("swap: cluster size %d must be a positive multiple of block size %d",
			c.ClusterBytes, blockSize)
	}
	if c.GCTriggerFrac < 0 || c.GCTriggerFrac > 1 {
		return fmt.Errorf("swap: GCTriggerFrac %g out of [0,1]", c.GCTriggerFrac)
	}
	if n := c.ClusterBytes / c.FragSize; c.CommitRecords && n > math.MaxUint16 {
		return fmt.Errorf("swap: a compaction batch of up to %d fragments overflows a commit record's 16-bit count", n)
	}
	return nil
}

// extent records where a page lives in the swap file.
type extent struct {
	start      int32 // first fragment index
	nfrags     int32
	length     int32 // exact byte length of the stored data
	compressed bool
	sum        uint32 // integrity checksum of the stored bytes
}

// Clustered is the compressed backing store of §4.3. Compressed pages are
// padded to FragSize, batched into clustered writes, and located through an
// explicit page map; stale copies accumulate as garbage until a compaction
// pass rewrites the live data densely.
type Clustered struct {
	clusteredState
	cfg       ClusterConfig
	fsys      *fs.FS
	file      *fs.File
	blockSize int
	fragsPerB int

	// byStart is the reverse index of extents by first fragment, parallel to
	// marked. Freeing an extent leaves its entry behind: byStart[f] names an
	// extent starting at f only if extents still says that key starts there.
	byStart []PageKey
	inGC    bool // true only inside a GC pass

	bus   *obs.Bus
	clock *sim.Clock // event timestamps only; the fs layer charges the I/O

	// readBuf and readNbrs back the slices Read returns when it does not lend
	// the platter; they are reused on the next Read, which is why Read's
	// results are borrow-only.
	readBuf  []byte
	readNbrs []Item

	// placeBuf, writeBuf and commit are WriteCluster's layout, serialization
	// and commit-record scratch, reused across calls; the device copies the
	// bytes out before WriteCluster returns, so nothing aliases them afterwards.
	placeBuf  []commitEntry
	writeBuf  []byte
	commit    commitRecord
	commitEnc *snap.Codec

	// A compaction pass's scratch, grown once and reused the same way: the
	// live-page table, the relocating pass's cover map and padding list, and
	// the rewrite batch and the staging buffer its pages are copied into.
	// A pass is never reentered (inGC), and no contents outlive it: the
	// staging buffer keeps its capacity, about a cluster of page data.
	gcPages   []gcPage
	gcCovered []bool
	gcPad     []int32
	gcBatch   []Item
	gcStage   []byte
}

// clusteredState is the store's replay state: everything a snapshot carries.
type clusteredState struct {
	// marked[i] is true when fragment i is part of a live extent or is
	// cluster padding; free (reusable) fragments are false.
	marked  []bool
	extents PageTable[extent]
	liveFr  int // fragments covered by live extents
	padFr   int // marked fragments belonging to no extent (padding)
	hint    int // first-fit search start

	// Commit-record state (CommitRecords mode): seq orders clusters for
	// recovery; attempted remembers the item checksums of a crash-torn
	// write, whose pages carry no durability promise (VerifyRecovery
	// consults it).
	seq       uint64
	attempted PageTable[uint32]

	st stats.Swap
}

// NewClustered creates a clustered store backed by a dedicated swap file.
func NewClustered(cfg ClusterConfig, fsys *fs.FS) (*Clustered, error) {
	cfg.setDefaults()
	if err := cfg.validate(fsys.BlockSize()); err != nil {
		return nil, err
	}
	return makeClustered(cfg, fsys, fsys.Create("swap.clustered")), nil
}

// makeClustered builds the store around an existing file (recovery) or a
// fresh one; cfg must already be defaulted and validated.
func makeClustered(cfg ClusterConfig, fsys *fs.FS, file *fs.File) *Clustered {
	c := &Clustered{
		cfg:       cfg,
		fsys:      fsys,
		file:      file,
		blockSize: fsys.BlockSize(),
		fragsPerB: fsys.BlockSize() / cfg.FragSize,
	}
	if cfg.CommitRecords {
		c.seq = 1
		c.commitEnc = snap.Encoder(new(snap.Writer))
	}
	return c
}

// SetObserver wires the store to a machine's event bus; nil disables
// emission. The clock supplies event timestamps (the store itself charges no
// time — the fs layer below it does).
func (c *Clustered) SetObserver(b *obs.Bus, clock *sim.Clock) {
	c.bus = b
	c.clock = clock
}

// Stats returns a snapshot of the store's counters, including current
// fragment accounting: FragsLive counts fragments of live extents and
// FragsFree counts garbage (holes plus padding) within the file's span.
func (c *Clustered) Stats() stats.Swap {
	st := c.st
	st.FragsLive = uint64(c.liveFr)
	st.FragsFree = uint64(len(c.marked) - c.liveFr)
	return st
}

// Has reports whether the store holds a copy of the page.
func (c *Clustered) Has(key PageKey) bool { return c.extents.Has(key) }

// Invalidate frees the page's fragments (the page was modified in memory, so
// the stored copy is stale).
func (c *Clustered) Invalidate(key PageKey) {
	if e, ok := c.extents.Get(key); ok {
		c.freeExtent(key, e)
	}
}

func (c *Clustered) freeExtent(key PageKey, e extent) {
	for i := e.start; i < e.start+e.nfrags; i++ {
		c.marked[i] = false
	}
	c.liveFr -= int(e.nfrags)
	if int(e.start) < c.hint {
		c.hint = int(e.start)
	}
	c.extents.Delete(key)
}

// fragsFor reports the padded fragment count for n bytes of data.
func (c *Clustered) fragsFor(n int) int32 {
	return int32((n + c.cfg.FragSize - 1) / c.cfg.FragSize)
}

// WriteCluster writes a batch of pages in one clustered operation. Items
// already in the store are relocated; their old fragments become garbage,
// which is what forces the §4.3 garbage collection. When async is true the
// device write is queued without blocking the caller (the cleaner path);
// otherwise the caller waits for it.
//
// Callers should batch items to about ClusterBytes; WriteCluster itself
// accepts any batch — in CommitRecords mode, up to the 65,535 items a commit
// record counts — and issues one device operation per call.
func (c *Clustered) WriteCluster(items []Item, async bool) error {
	if len(items) == 0 {
		return nil
	}
	if c.cfg.CommitRecords && len(items) > math.MaxUint16 {
		return fmt.Errorf("swap: %d items in one cluster; a commit record holds at most %d", len(items), math.MaxUint16)
	}
	// Compact first if garbage demands it. GC reenters WriteCluster for its
	// dense rewrite, and those inner calls use the shared placeBuf/writeBuf
	// scratch — so it must finish before this call lays anything out in
	// them.
	if err := c.maybeGC(); err != nil {
		return err
	}
	l := c.layout(items)
	entries, start, total := c.placeBuf, l.start, l.total
	c.claim(start, total)

	// Serialize the cluster and issue the device write before touching the
	// page map, so a failed write leaves the old copies authoritative. The
	// buffer is reused, so what the items leave alone (padding gaps, the
	// record's fragments, the whole-block tail) is zeroed: the platter must
	// hold deterministic zeroes there, not stale bytes. A lone item that is
	// the whole cluster — a raw page with no commit record — has nothing
	// around it to zero, and is written from the caller's buffer.
	n := int(total) * c.cfg.FragSize
	buf := items[0].Data
	if len(items) > 1 || l.recFrags > 0 || len(buf) != n {
		if cap(c.writeBuf) < n {
			c.writeBuf = make([]byte, n)
		}
		buf = c.writeBuf[:n]
		end := 0
		for i, e := range entries {
			off := int(e.start-start) * c.cfg.FragSize
			clear(buf[end:off])
			end = off + copy(buf[off:], items[i].Data)
		}
		clear(buf[end:])
		if c.cfg.CommitRecords {
			c.encodeCommit(buf[int(l.recRel)*c.cfg.FragSize:], l.recFrags)
		}
	}
	off := int64(start) * int64(c.cfg.FragSize)
	var err error
	if async {
		_, err = c.file.RawWriteAsync(buf, off, n)
	} else {
		err = c.file.RawWrite(buf, off, n)
	}
	if err != nil {
		// Return the just-allocated run; nothing was relocated.
		for i := start; i < start+total; i++ {
			c.marked[i] = false
		}
		if int(start) < c.hint {
			c.hint = int(start)
		}
		if c.cfg.CommitRecords && fault.IsCrash(err) {
			// The machine is dead; remember what was in flight so the
			// recovery oracle knows these pages carry no durability promise
			// (a fully-survived tear may still resurface them).
			for _, e := range entries {
				c.attempted.Set(e.key, e.sum)
			}
		}
		return err
	}

	// Record the new locations, freeing any old copies.
	for _, e := range entries {
		if old, ok := c.extents.Get(e.key); ok {
			c.freeExtent(e.key, old)
		}
		c.extents.Set(e.key, e.extent)
		c.byStart[e.start] = e.key
	}
	c.liveFr += int(l.liveFrags)
	c.padFr += int(total - l.liveFrags)
	if c.cfg.CommitRecords {
		c.seq++
	}
	if !c.inGC {
		c.st.PagesOut += uint64(len(items))
		if c.bus.Enabled(obs.ClassFlush) {
			c.bus.Emit(obs.Event{
				T: c.clock.Now(), Class: obs.ClassFlush, Sub: obs.SubSwap,
				Bytes: int64(n), Aux: int64(len(items)),
			})
		}
	}
	return nil
}

// clusterLayout is where one clustered write goes: its run of fragments
// [start, start+total), the fragments its items cover, and its commit
// record's position relative to start.
type clusterLayout struct {
	start, total     int32
	liveFrags        int32
	recRel, recFrags int32
}

// layout places items as one cluster without allocating it: it fills
// placeBuf with their commit entries at absolute fragment positions and
// returns the run the allocator's first fit picks. WriteCluster claims
// exactly that run; the dense compaction pass asks it how far its next write
// reaches.
func (c *Clustered) layout(items []Item) clusterLayout {
	// Lay the items out relative to the cluster start, as the entries of its
	// commit record. The cluster start is always block-aligned in
	// whole-block mode, so relative block boundaries coincide with absolute
	// ones.
	blockFrags := int32(c.fragsPerB)
	entries := c.placeBuf[:0]
	var cursor, liveFrags int32
	for _, it := range items {
		if !it.Compressed && len(it.Data) != c.cfg.PageSize {
			// Invariant: the compression cache pads or rejects short data;
			// an odd-sized raw item is a programming error, not a fault.
			panic(fmt.Sprintf("swap: raw item for %v is %d bytes, want %d", it.Key, len(it.Data), c.cfg.PageSize))
		}
		nf := c.fragsFor(len(it.Data))
		if !c.cfg.SpanBlocks {
			if within := cursor % blockFrags; within != 0 && within+nf > blockFrags {
				cursor += blockFrags - within // pad to the next block
			}
		}
		e := extent{start: cursor, nfrags: nf, length: int32(len(it.Data)), compressed: it.Compressed, sum: it.Sum}
		entries = append(entries, commitEntry{key: it.Key, extent: e})
		cursor += nf
		liveFrags += nf
	}
	c.placeBuf = entries
	// In the recoverable format the cluster carries a trailing commit
	// record; its fragments are cluster padding (never entered in byStart,
	// so reads skip them) and travel in the same device transfer as the
	// data, committing — or tearing — with it.
	l := clusterLayout{liveFrags: liveFrags, recRel: cursor}
	if c.cfg.CommitRecords {
		l.recFrags = c.fragsFor(commitBytes(len(items)))
	}
	l.total = cursor + l.recFrags
	step := 1
	if !c.fsys.AllowPartialIO() {
		// Whole-block I/O: the cluster fills and starts on whole blocks.
		if rem := l.total % blockFrags; rem != 0 {
			l.total += blockFrags - rem
		}
		step = c.fragsPerB
	}
	l.start = c.firstFit(l.total, step)
	for i := range entries {
		entries[i].start += l.start
	}
	return l
}

// firstFit finds the first run of n free fragments at or after the hint,
// starting at a multiple of step; fragments past the bitmap's end are free.
// It marks nothing.
func (c *Clustered) firstFit(n int32, step int) int32 {
	start := c.hint - c.hint%step
	for start < len(c.marked) && slices.Contains(c.marked[start:min(start+int(n), len(c.marked))], true) {
		start += step
	}
	return int32(start)
}

// claim marks the n-fragment run at start, growing the bitmap to hold it.
func (c *Clustered) claim(start, n int32) {
	for int(start+n) > len(c.marked) {
		c.marked = append(c.marked, false)
		c.byStart = append(c.byStart, PageKey{})
	}
	for i := start; i < start+n; i++ {
		c.marked[i] = true
	}
	if int(start) == c.hint {
		c.hint = int(start + n)
	}
}

// Read fetches the page, honouring the whole-block rule: in whole-block mode
// the device reads every block the page's fragments touch, and every other
// page wholly contained in those blocks is returned as a neighbor — an Item
// carrying the checksum recorded when that page was stored (the caller
// typically inserts neighbors into the compression cache as clean pages). It
// reports ok=false if the page is not stored. The returned sum is the
// integrity checksum recorded when the page was stored; the caller verifies
// it after any decompression-side corruption checks.
//
// The returned data and neighbor Data slices are read-only views, valid until
// the store's next write or Read. A read that lies in one file block and
// brings no neighbors lends the platter block itself (fs.File.RawView); any
// other is copied into a read buffer the next Read reuses. Neighbors are
// never lent: a caller caching them can trigger a flush, and the flush a
// compaction that rewrites the platter under views not yet consumed.
func (c *Clustered) Read(key PageKey) (data []byte, sum uint32, compressed bool, neighbors []Item, ok bool, err error) {
	e, found := c.extents.Get(key)
	if !found {
		return nil, 0, false, nil, false, nil
	}
	c.st.PagesIn++
	fragOff := int64(e.start) * int64(c.cfg.FragSize)
	byteLen := int(e.nfrags) * c.cfg.FragSize

	if c.fsys.AllowPartialIO() {
		buf, err := c.readSpan(fragOff, byteLen, true)
		if err != nil {
			return nil, 0, false, nil, true, err
		}
		return buf[:e.length], e.sum, e.compressed, nil, true, nil
	}

	// Whole-block mode: read all covering blocks. A page that spans a block
	// boundary costs a two-block read (§4.3). The neighbors are found first,
	// from the page map alone, to know whether the read may be lent; their
	// views point into the read buffer, which the read fills when it does
	// not lend.
	bs := int64(c.blockSize)
	b0 := fragOff / bs
	b1 := (fragOff + int64(byteLen) + bs - 1) / bs
	own := c.readBytes(int((b1 - b0) * bs))
	neighbors = c.readNbrs[:0]
	firstFrag := int32(b0 * bs / int64(c.cfg.FragSize))
	lastFrag := int32(b1 * bs / int64(c.cfg.FragSize))
	for f := firstFrag; f < lastFrag; f++ {
		nk, ne, okk := c.startsAt(f)
		if !okk || nk == key {
			continue
		}
		if ne.start+ne.nfrags > lastFrag {
			continue // partially outside the read
		}
		nrel := int64(ne.start)*int64(c.cfg.FragSize) - b0*bs
		neighbors = append(neighbors, Item{
			Key:        nk,
			Data:       own[nrel : nrel+int64(ne.length)],
			Compressed: ne.compressed,
			Sum:        ne.sum,
		})
	}
	c.readNbrs = neighbors
	if len(neighbors) == 0 {
		neighbors = nil
	}
	buf, err := c.readSpan(b0*bs, len(own), neighbors == nil)
	if err != nil {
		return nil, 0, false, nil, true, err
	}
	rel := fragOff - b0*bs
	return buf[rel : rel+int64(e.length)], e.sum, e.compressed, neighbors, true, nil
}

// readSpan reads n bytes at off: lent from the platter when lend is set and
// the span lies in one block, otherwise copied into the read buffer.
func (c *Clustered) readSpan(off int64, n int, lend bool) ([]byte, error) {
	if lend {
		if view, ok, err := c.file.RawView(off, n); ok {
			return view, err
		}
	}
	buf := c.readBytes(n)
	return buf, c.file.RawRead(buf, off, n)
}

// readBytes returns the reusable read buffer grown to n bytes.
func (c *Clustered) readBytes(n int) []byte {
	if cap(c.readBuf) < n {
		c.readBuf = make([]byte, n)
	}
	return c.readBuf[:n]
}

// startsAt returns the live extent whose first fragment is f, if there is
// one (see byStart).
func (c *Clustered) startsAt(f int32) (PageKey, extent, bool) {
	key := c.byStart[f]
	e, ok := c.extents.Get(key)
	return key, e, ok && e.start == f
}

// maybeGC compacts the swap file when garbage (holes plus padding) exceeds
// the configured fraction of the file's span.
func (c *Clustered) maybeGC() error {
	if c.inGC || len(c.marked) == 0 {
		return nil
	}
	garbage := len(c.marked) - c.liveFr
	minGarbage := c.cfg.ClusterBytes / c.cfg.FragSize
	if garbage < minGarbage {
		return nil
	}
	if float64(garbage)/float64(len(c.marked)) < c.cfg.GCTriggerFrac {
		return nil
	}
	return c.GC()
}

// gcPage is one live extent found by the GC read sweep.
type gcPage struct {
	key PageKey
	e   extent
}

// GC compacts the swap file: every live extent is read (block-granular) and
// rewritten densely toward the start of the file. The I/O is charged to the
// device like any other transfer — garbage collection of the backing store
// is not free, which is the cost §4.3 warns about. A device error during the
// read sweep aborts the pass with the page map untouched; an error during
// the rewrite propagates from WriteCluster with the already-rewritten
// extents recorded.
//
// The default rewrite resets the allocation bitmap and writes densely from
// fragment zero — over media that still holds the only copy of not-yet-
// rewritten pages, which a crash mid-pass would destroy. CommitRecords mode
// therefore relocates instead: live pages move through ordinary clustered
// writes into free space, each old copy freed only after its replacement's
// device write (and commit record) succeeds, so every instant of the pass
// leaves a recoverable image.
func (c *Clustered) GC() error {
	if c.inGC {
		return nil
	}
	c.inGC = true
	defer func() { c.inGC = false }()
	c.st.GCs++
	copiedBefore := c.st.GCBytesCopied
	defer func() {
		if c.bus.Enabled(obs.ClassSwapGC) {
			c.bus.Emit(obs.Event{
				T: c.clock.Now(), Class: obs.ClassSwapGC, Sub: obs.SubSwap,
				Bytes: int64(c.st.GCBytesCopied - copiedBefore),
			})
		}
	}()

	pages, err := c.sweepLive()
	if err != nil {
		return err
	}
	if c.cfg.CommitRecords {
		err = c.gcRelocate(pages)
	} else {
		err = c.gcRewrite(pages)
	}
	if err != nil {
		return err
	}
	if c.cfg.CommitRecords {
		// The format that has to survive a crash audits its accounting after
		// every pass, turning silent drift into an immediate error.
		return c.CheckConsistency()
	}
	return nil
}

// sweepLive charges the device for reading every live extent in one
// sequential sweep, block-granular in whole-block mode, and returns the
// pages sorted by media position. It copies nothing: writeBack takes each
// page's bytes off the platter just before the write that carries it.
func (c *Clustered) sweepLive() ([]gcPage, error) {
	pages := slices.Grow(c.gcPages[:0], c.extents.Len())
	for f := int32(0); int(f) < len(c.byStart); f++ {
		if key, e, ok := c.startsAt(f); ok {
			pages = append(pages, gcPage{key: key, e: e})
			f += e.nfrags - 1
		}
	}
	c.gcPages = pages
	for _, p := range pages {
		off, n := c.sweepSpan(p.e)
		if err := c.file.RawReadStaged(off, n); err != nil {
			return nil, err
		}
		c.st.GCBytesCopied += uint64(n)
	}
	return pages, nil
}

// sweepSpan returns the device transfer that reads extent e: exactly its
// fragments under partial I/O, the whole blocks around them otherwise.
func (c *Clustered) sweepSpan(e extent) (off int64, n int) {
	off = int64(e.start) * int64(c.cfg.FragSize)
	n = int(e.nfrags) * c.cfg.FragSize
	if c.fsys.AllowPartialIO() {
		return off, n
	}
	bs := int64(c.blockSize)
	b0 := off / bs
	b1 := (off + int64(n) + bs - 1) / bs
	return b0 * bs, int((b1 - b0) * bs)
}

// gcRewrite is the in-place dense rewrite: reset the allocation state and
// write everything back from fragment zero.
func (c *Clustered) gcRewrite(pages []gcPage) error {
	c.marked = c.marked[:0]
	c.byStart = c.byStart[:0]
	c.extents.Clear()
	c.liveFr = 0
	c.padFr = 0
	c.hint = 0
	return c.writeBack(pages, true)
}

// gcRelocate is the crash-safe compaction: live pages are rewritten through
// ordinary clustered writes (which only allocate free fragments and free
// each old copy after its replacement commits), then the pre-pass padding —
// old cluster padding and commit records, all of whose items the relocation
// has superseded — is released in one sweep.
func (c *Clustered) gcRelocate(pages []gcPage) error {
	// Snapshot the pre-pass padding fragments: marked but covered by no
	// extent. They stay marked for the whole pass (the allocator skips
	// marked fragments), so the indices remain valid.
	if cap(c.gcCovered) < len(c.marked) {
		c.gcCovered = make([]bool, len(c.marked))
	}
	covered := c.gcCovered[:len(c.marked)]
	clear(covered)
	for _, p := range pages {
		for i := p.e.start; i < p.e.start+p.e.nfrags; i++ {
			covered[i] = true
		}
	}
	pad := c.gcPad[:0]
	for i, m := range c.marked {
		if m && !covered[i] {
			pad = append(pad, int32(i))
		}
	}
	c.gcPad = pad

	c.hint = 0 // steer the relocation toward the lowest holes
	if err := c.writeBack(pages, false); err != nil {
		return err
	}
	for _, f := range pad {
		c.marked[f] = false
	}
	c.padFr -= len(pad)
	c.hint = 0
	return nil
}

// writeBack rewrites the swept pages in cluster-sized batches. Each page is
// copied off the platter into the staging buffer just before the write that
// carries it; the sweep has already paid for the read. The relocating pass
// writes only into free fragments or those of pages it has rewritten, so
// nothing else is at risk. The dense rewrite (dense) restarts at fragment
// zero, and a write can cover the start of a page it has not reached yet:
// before each write it first stages every remaining page whose extent
// starts below the end of that write's layout.
func (c *Clustered) writeBack(pages []gcPage, dense bool) error {
	// A batch carries less than a cluster plus one page of data.
	stage := slices.Grow(c.gcStage[:0], c.cfg.ClusterBytes+c.cfg.PageSize)
	staged := 0 // pages[:staged] are written or staged, in order
	for next := 0; next < len(pages); {
		end, batchBytes := next, 0
		for end < len(pages) && batchBytes < c.cfg.ClusterBytes {
			batchBytes += int(pages[end].e.nfrags) * c.cfg.FragSize
			end++
		}
		for ; staged < end; staged++ {
			stage = c.stagePage(stage, pages[staged].e)
		}
		batch := c.bindBatch(pages[next:end], stage)
		if dense {
			l := c.layout(batch)
			for ; staged < len(pages) && pages[staged].e.start < l.start+l.total; staged++ {
				stage = c.stagePage(stage, pages[staged].e)
			}
			batch = c.bindBatch(pages[next:end], stage) // staging may have moved
		}
		if err := c.WriteCluster(batch, false); err != nil {
			c.gcStage = stage
			return err
		}
		written := 0
		for _, it := range batch {
			written += len(it.Data)
		}
		stage = stage[:copy(stage, stage[written:])] // keep the early copies
		next = end
	}
	c.gcStage = stage
	return nil
}

// stagePage appends the bytes of extent e, copied off the platter, to stage.
func (c *Clustered) stagePage(stage []byte, e extent) []byte {
	n := len(stage)
	stage = slices.Grow(stage, int(e.length))[:n+int(e.length)]
	c.file.ReadStaged(int64(e.start)*int64(c.cfg.FragSize), stage[n:])
	return stage
}

// bindBatch returns the write batch for pages, whose bytes open stage in
// order.
func (c *Clustered) bindBatch(pages []gcPage, stage []byte) []Item {
	batch := c.gcBatch[:0]
	off := 0
	for _, p := range pages {
		n := off + int(p.e.length)
		batch = append(batch, Item{Key: p.key, Data: stage[off:n:n], Compressed: p.e.compressed, Sum: p.e.sum})
		off = n
	}
	c.gcBatch = batch
	return batch
}

// CheckConsistency rebuilds the fragment accounting from the extent map and
// compares it with the incremental counters; tests call it after stressing
// the store.
func (c *Clustered) CheckConsistency() error {
	live := make([]bool, len(c.marked))
	covered := 0
	for _, key := range c.extents.Keys() {
		e, _ := c.extents.Get(key)
		if e.start < 0 || e.nfrags <= 0 || int(e.start)+int(e.nfrags) > len(c.marked) {
			return fmt.Errorf("swap: extent %v [%d,+%d) lies outside the %d-fragment bitmap", key, e.start, e.nfrags, len(c.marked))
		}
		if got := c.byStart[e.start]; got != key {
			return fmt.Errorf("swap: byStart[%d] = %v, want %v", e.start, got, key)
		}
		for i := e.start; i < e.start+e.nfrags; i++ {
			if live[i] {
				return fmt.Errorf("swap: fragment %d claimed by two extents", i)
			}
			live[i] = true
			covered++
			if !c.marked[i] {
				return fmt.Errorf("swap: extent %v covers unmarked fragment %d", key, i)
			}
		}
	}
	if covered != c.liveFr {
		return fmt.Errorf("swap: liveFr counter %d, extents cover %d", c.liveFr, covered)
	}
	marked := 0
	for _, m := range c.marked {
		if m {
			marked++
		}
	}
	if marked != c.liveFr+c.padFr {
		return fmt.Errorf("swap: bitmap marks %d fragments, counters say %d live + %d padding",
			marked, c.liveFr, c.padFr)
	}
	if c.hint < 0 || c.hint > len(c.marked) {
		return fmt.Errorf("swap: first-fit hint %d outside the %d-fragment bitmap", c.hint, len(c.marked))
	}
	return nil
}
