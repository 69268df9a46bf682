package swap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"compcache/internal/disk"
	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/sim"
	"compcache/internal/snap"
)

func newFS(t *testing.T, opts fs.Options) (*fs.FS, *disk.Disk, *sim.Clock) {
	t.Helper()
	if opts.BlockSize == 0 {
		opts.BlockSize = 4096
	}
	var clock sim.Clock
	d, err := disk.New(disk.RZ57(), &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool := mem.NewPool(16, opts.BlockSize)
	fsys, err := fs.New(opts, d, &clock, pool)
	if err != nil {
		t.Fatal(err)
	}
	return fsys, d, &clock
}

func page(seed int64, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// writeCluster is a test helper asserting the device write succeeds.
func writeCluster(t *testing.T, c *Clustered, items []Item, async bool) {
	t.Helper()
	if err := c.WriteCluster(items, async); err != nil {
		t.Fatalf("WriteCluster: %v", err)
	}
}

// readC adapts Clustered.Read to the historical 4-tuple shape for tests that
// do not exercise checksums or device errors.
func readC(t *testing.T, c *Clustered, key PageKey) (data []byte, compressed bool, neighbors []Item, ok bool) {
	t.Helper()
	data, _, compressed, neighbors, ok, err := c.Read(key)
	if err != nil {
		t.Fatalf("Read(%v): %v", key, err)
	}
	return data, compressed, neighbors, ok
}

// lfsRead is a test helper asserting the device read succeeds.
func lfsRead(t *testing.T, l *LFS, key PageKey, buf []byte) bool {
	t.Helper()
	ok, err := l.Read(key, buf)
	if err != nil {
		t.Fatalf("Read(%v): %v", key, err)
	}
	return ok
}

// ---------------------------------------------------------------------------
// Direct store

func TestDirectRoundTrip(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	d, err := NewDirect(fsys, 4096)
	if err != nil {
		t.Fatal(err)
	}
	key := PageKey{Seg: 1, Page: 7}
	data := page(1, 4096)
	d.Write(key, data)
	if !d.Has(key) {
		t.Fatal("Has = false after Write")
	}
	got := make([]byte, 4096)
	if ok, err := d.Read(key, got); err != nil || !ok {
		t.Fatalf("Read: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	st := d.Stats()
	if st.PagesOut != 1 || st.PagesIn != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDirectMissingPage(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	d, _ := NewDirect(fsys, 4096)
	if ok, err := d.Read(PageKey{0, 0}, make([]byte, 4096)); err != nil || ok {
		t.Fatalf("Read of never-written page: ok=%v err=%v", ok, err)
	}
}

func TestDirectInvalidate(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	d, _ := NewDirect(fsys, 4096)
	key := PageKey{2, 3}
	d.Write(key, page(2, 4096))
	d.Invalidate(key)
	if d.Has(key) {
		t.Fatal("Has after Invalidate")
	}
}

func TestDirectSegmentsIsolated(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	d, _ := NewDirect(fsys, 4096)
	a := page(10, 4096)
	b := page(11, 4096)
	d.Write(PageKey{1, 0}, a)
	d.Write(PageKey{2, 0}, b)
	got := make([]byte, 4096)
	d.Read(PageKey{1, 0}, got)
	if !bytes.Equal(got, a) {
		t.Fatal("segment files aliased")
	}
}

// A present page with no swap file behind it, or past what was written of
// one, is what a forged snapshot leaves; reading it would create the file or
// leave its extent.
func TestDirectCheckConsistency(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	d, _ := NewDirect(fsys, 4096)
	d.Write(PageKey{1, 7}, page(1, 4096))
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, key := range append([]PageKey{{Seg: 1, Page: 8}, {Seg: 0, Page: 0}, {Seg: 2, Page: 0}}, hostileKeys...) {
		d.present.Set(key, struct{}{})
		if err := d.CheckConsistency(); err == nil {
			t.Errorf("present set names %v, never written: no complaint", key)
		}
		d.present.Delete(key)
	}
}

func TestDirectBadGeometry(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	if _, err := NewDirect(fsys, 1000); err == nil {
		t.Fatal("NewDirect accepted non-block-multiple page size")
	}
}

func TestDirectSequentialPagesSequentialOnDisk(t *testing.T) {
	fsys, dk, _ := newFS(t, fs.Options{})
	d, _ := NewDirect(fsys, 4096)
	for p := int32(0); p < 8; p++ {
		d.Write(PageKey{1, p}, page(int64(p), 4096))
	}
	// Sequential whole-page writes to adjacent pages: only the first pays a
	// seek.
	if got := dk.Stats().Seeks; got != 1 {
		t.Fatalf("8 sequential page writes paid %d seeks, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Clustered store

func newClustered(t *testing.T, fsOpts fs.Options, cfg ClusterConfig) (*Clustered, *fs.FS, *disk.Disk) {
	t.Helper()
	fsys, d, _ := newFS(t, fsOpts)
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	c, err := NewClustered(cfg, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return c, fsys, d
}

func TestClusteredConfigValidation(t *testing.T) {
	fsys, _, _ := newFS(t, fs.Options{})
	bad := []ClusterConfig{
		{PageSize: 1000},
		{PageSize: 4096, FragSize: 3000},
		{PageSize: 4096, ClusterBytes: 1000},
		{PageSize: 4096, GCTriggerFrac: 2},
		{PageSize: 4096, FragSize: 512, ClusterBytes: 65536 * 512, CommitRecords: true}, // a compaction batch overflows the record's count
	}
	for i, cfg := range bad {
		if _, err := NewClustered(cfg, fsys); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestClusteredRoundTrip(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	key := PageKey{1, 5}
	data := page(3, 1500) // compressed page, padded to 2 fragments
	writeCluster(t, c, []Item{{Key: key, Data: data, Compressed: true}}, false)
	got, compressed, _, ok := readC(t, c, key)
	if !ok || !compressed {
		t.Fatalf("Read ok=%v compressed=%v", ok, compressed)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredRawItemRoundTrip(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	key := PageKey{1, 9}
	data := page(4, 4096)
	writeCluster(t, c, []Item{{Key: key, Data: data, Compressed: false}}, false)
	got, compressed, _, ok := readC(t, c, key)
	if !ok || compressed {
		t.Fatalf("Read ok=%v compressed=%v", ok, compressed)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestClusteredRawItemWrongSizePanics(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short raw item")
		}
	}()
	c.WriteCluster([]Item{{Key: PageKey{1, 1}, Data: make([]byte, 100), Compressed: false}}, false)
}

func TestClusteredSingleDeviceOpPerCluster(t *testing.T) {
	c, _, d := newClustered(t, fs.Options{}, ClusterConfig{})
	var items []Item
	for i := int32(0); i < 16; i++ {
		items = append(items, Item{Key: PageKey{1, i}, Data: page(int64(i), 1024), Compressed: true})
	}
	w0 := d.Stats().Writes
	writeCluster(t, c, items, false)
	if got := d.Stats().Writes - w0; got != 1 {
		t.Fatalf("cluster write issued %d device ops, want 1", got)
	}
}

func TestClusteredNeighbors(t *testing.T) {
	// Four 1-fragment pages share one 4-KByte block: reading one must return
	// the other three as neighbors.
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	var items []Item
	for i := int32(0); i < 4; i++ {
		items = append(items, Item{Key: PageKey{1, i}, Data: page(int64(i), 1000), Compressed: true})
	}
	writeCluster(t, c, items, false)
	_, _, neighbors, ok := readC(t, c, PageKey{1, 0})
	if !ok {
		t.Fatal("Read failed")
	}
	if len(neighbors) != 3 {
		t.Fatalf("got %d neighbors, want 3", len(neighbors))
	}
	for _, n := range neighbors {
		want := page(int64(n.Key.Page), 1000)
		if !bytes.Equal(n.Data, want) {
			t.Errorf("neighbor %v data mismatch", n.Key)
		}
	}
}

func TestClusteredNoSpanPadsToBlock(t *testing.T) {
	// With SpanBlocks=false a 3-fragment page following a 2-fragment page
	// cannot straddle the block boundary at fragment 4, so it starts at
	// fragment 4 and fragments 2–3 are padding.
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{SpanBlocks: false})
	items := []Item{
		{Key: PageKey{1, 0}, Data: page(1, 2000), Compressed: true}, // 2 frags
		{Key: PageKey{1, 1}, Data: page(2, 2500), Compressed: true}, // 3 frags
	}
	writeCluster(t, c, items, false)
	st := c.Stats()
	if st.FragsLive != 5 {
		t.Fatalf("live frags = %d, want 5", st.FragsLive)
	}
	// Span: 2 frags + 2 pad + 3 frags = 7, rounded to 8 (whole blocks).
	if st.FragsFree != 3 {
		t.Fatalf("free frags = %d, want 3 (2 pad + 1 round-up)", st.FragsFree)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredSpanReadsTwoBlocks(t *testing.T) {
	c, _, d := newClustered(t, fs.Options{}, ClusterConfig{SpanBlocks: true})
	items := []Item{
		{Key: PageKey{1, 0}, Data: page(1, 3000), Compressed: true}, // frags 0-2
		{Key: PageKey{1, 1}, Data: page(2, 3000), Compressed: true}, // frags 3-5: spans blocks 0 and 1
	}
	writeCluster(t, c, items, false)
	r0 := d.Stats().BytesRead
	_, _, _, ok := readC(t, c, PageKey{1, 1})
	if !ok {
		t.Fatal("Read failed")
	}
	if got := d.Stats().BytesRead - r0; got != 8192 {
		t.Fatalf("spanning page read %d bytes, want 8192 (two blocks)", got)
	}
}

func TestClusteredPartialIOReadsExactExtent(t *testing.T) {
	c, _, d := newClustered(t, fs.Options{AllowPartialIO: true}, ClusterConfig{})
	writeCluster(t, c, []Item{{Key: PageKey{1, 0}, Data: page(1, 1500), Compressed: true}}, false)
	r0 := d.Stats().BytesRead
	got, _, neighbors, ok := readC(t, c, PageKey{1, 0})
	if !ok || len(got) != 1500 {
		t.Fatalf("Read ok=%v len=%d", ok, len(got))
	}
	if neighbors != nil {
		t.Fatal("partial-IO read returned neighbors")
	}
	if got := d.Stats().BytesRead - r0; got != 2048 {
		t.Fatalf("read %d bytes, want 2048 (two fragments)", got)
	}
}

// The cluster buffer is reused, so whatever a placement or the commit record
// does not overwrite must be zeroed before the transfer: the platter holds
// deterministic zeroes in the padding, not the previous cluster's bytes.
func TestWriteClusterPadsWithZeroes(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{CommitRecords: true})
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	// A large first cluster leaves the buffer full of 0xFF.
	var first []Item
	for i := int32(0); i < 10; i++ {
		first = append(first, Item{Key: PageKey{1, i}, Data: fill(4096, 0xFF)})
	}
	writeCluster(t, c, first, false)
	// Non-spanning placements that pad to the next block, short tails inside
	// a fragment, a commit record, and whole-block rounding after it.
	second := []Item{
		{Key: PageKey{2, 0}, Data: fill(1500, 0xEE), Compressed: true},
		{Key: PageKey{2, 1}, Data: fill(3000, 0xEE), Compressed: true},
		{Key: PageKey{2, 2}, Data: fill(700, 0xEE), Compressed: true},
		{Key: PageKey{2, 3}, Data: fill(2049, 0xEE), Compressed: true},
	}
	writeCluster(t, c, second, false)

	frag := int64(c.cfg.FragSize)
	e0, _ := c.extents.Get(second[0].Key)
	from, to := int64(e0.start)*frag, (c.file.Size()+4095)&^4095
	img := make([]byte, to-from)
	if err := c.file.RawRead(img, from, len(img)); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(img)) // zero everywhere but the placements
	for _, it := range second {
		e, _ := c.extents.Get(it.Key)
		copy(want[int64(e.start)*frag-from:], it.Data)
	}
	records := 0
	var rec commitRecord
	dec := snap.Decoder(new(snap.Reader))
	for off := 0; off < len(img); off += int(frag) {
		if rec.decode(dec, img[off:], int(frag)) {
			n := commitBytes(len(rec.entries))
			copy(want[off:], img[off:off+n]) // the record is whatever it is
			records++
		}
	}
	if records != 1 {
		t.Fatalf("found %d commit records in the second cluster, want 1", records)
	}
	for i := range img {
		if img[i] != want[i] {
			t.Fatalf("platter byte %d of the second cluster is %#x, want %#x", i, img[i], want[i])
		}
	}
}

func TestClusteredRewriteRelocates(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	key := PageKey{1, 0}
	writeCluster(t, c, []Item{{Key: key, Data: page(1, 1024), Compressed: true}}, false)
	e, _ := c.extents.Get(key)
	first := e.start
	writeCluster(t, c, []Item{{Key: key, Data: page(2, 1024), Compressed: true}}, false)
	e, _ = c.extents.Get(key)
	second := e.start
	if first == second {
		t.Fatal("rewrite stored page at the same location (would be a partial-block overwrite)")
	}
	got, _, _, _ := readC(t, c, key)
	if !bytes.Equal(got, page(2, 1024)) {
		t.Fatal("read returned stale data")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredInvalidate(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	key := PageKey{1, 0}
	writeCluster(t, c, []Item{{Key: key, Data: page(1, 1024), Compressed: true}}, false)
	c.Invalidate(key)
	if c.Has(key) {
		t.Fatal("Has after Invalidate")
	}
	if _, _, _, ok := readC(t, c, key); ok {
		t.Fatal("Read after Invalidate succeeded")
	}
	c.Invalidate(key) // idempotent
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredGCCompactsAndPreservesData(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{GCTriggerFrac: 0.99})
	// Write 64 pages, then invalidate every other one to create garbage.
	contents := make(map[PageKey][]byte)
	var items []Item
	for i := int32(0); i < 64; i++ {
		key := PageKey{1, i}
		data := page(int64(i)+100, 2048)
		contents[key] = data
		items = append(items, Item{Key: key, Data: data, Compressed: true})
		if len(items) == 16 {
			writeCluster(t, c, items, false)
			items = nil
		}
	}
	for i := int32(0); i < 64; i += 2 {
		c.Invalidate(PageKey{1, i})
		delete(contents, PageKey{1, i})
	}
	spanBefore := len(c.marked)
	c.GC()
	if got := c.Stats().GCs; got != 1 {
		t.Fatalf("GCs = %d", got)
	}
	if len(c.marked) >= spanBefore {
		t.Fatalf("GC did not shrink the file span: %d -> %d", spanBefore, len(c.marked))
	}
	for key, want := range contents {
		got, _, _, ok := readC(t, c, key)
		if !ok {
			t.Fatalf("GC lost page %v", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GC corrupted page %v", key)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredAutoGCTriggers(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{GCTriggerFrac: 0.4})
	// Repeatedly rewrite the same pages; stale copies accumulate until the
	// trigger fires.
	for round := 0; round < 20; round++ {
		var items []Item
		for i := int32(0); i < 16; i++ {
			items = append(items, Item{Key: PageKey{1, i}, Data: page(int64(round*16)+int64(i), 2048), Compressed: true})
		}
		writeCluster(t, c, items, false)
	}
	if c.Stats().GCs == 0 {
		t.Fatal("auto GC never triggered despite heavy rewriting")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Property-style churn: random writes, rewrites, invalidations and GCs never
// lose or corrupt a live page and keep the accounting consistent.
func TestClusteredChurn(t *testing.T) {
	for _, span := range []bool{false, true} {
		for _, partial := range []bool{false, true} {
			c, _, _ := newClustered(t, fs.Options{AllowPartialIO: partial},
				ClusterConfig{SpanBlocks: span, GCTriggerFrac: 0.6})
			rng := rand.New(rand.NewSource(99))
			contents := make(map[PageKey][]byte)
			for step := 0; step < 400; step++ {
				switch rng.Intn(4) {
				case 0, 1: // write a cluster of 1-8 pages
					n := rng.Intn(8) + 1
					var items []Item
					for i := 0; i < n; i++ {
						key := PageKey{1, int32(rng.Intn(40))}
						size := rng.Intn(4096) + 1
						compressed := size < 4096
						if !compressed {
							size = 4096
						}
						data := page(rng.Int63(), size)
						// Avoid duplicate keys within one cluster.
						dup := false
						for _, it := range items {
							if it.Key == key {
								dup = true
							}
						}
						if dup {
							continue
						}
						items = append(items, Item{Key: key, Data: data, Compressed: compressed})
						contents[key] = data
					}
					writeCluster(t, c, items, rng.Intn(2) == 0)
				case 2: // invalidate
					key := PageKey{1, int32(rng.Intn(40))}
					c.Invalidate(key)
					delete(contents, key)
				case 3: // read and verify
					key := PageKey{1, int32(rng.Intn(40))}
					got, _, _, ok := readC(t, c, key)
					want, live := contents[key]
					if ok != live {
						t.Fatalf("span=%v partial=%v: Read(%v) ok=%v, want %v", span, partial, key, ok, live)
					}
					if ok && !bytes.Equal(got, want) {
						t.Fatalf("span=%v partial=%v: Read(%v) data mismatch", span, partial, key)
					}
				}
				if step%50 == 0 {
					if err := c.CheckConsistency(); err != nil {
						t.Fatalf("span=%v partial=%v step %d: %v", span, partial, step, err)
					}
				}
			}
			// Final sweep: every live page is intact.
			for key, want := range contents {
				got, _, _, ok := readC(t, c, key)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("span=%v partial=%v: final verify failed for %v", span, partial, key)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestClusteredEmptyWrite(t *testing.T) {
	c, _, d := newClustered(t, fs.Options{}, ClusterConfig{})
	w0 := d.Stats().Writes
	writeCluster(t, c, nil, false)
	if d.Stats().Writes != w0 {
		t.Fatal("empty cluster issued a device write")
	}
}

// ---------------------------------------------------------------------------
// LFS store

func newLFS(t *testing.T, cfg LFSConfig) (*LFS, *disk.Disk, *mem.Pool) {
	t.Helper()
	var clock sim.Clock
	d, err := disk.New(disk.RZ57(), &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool := mem.NewPool(256, 4096)
	fsys, err := fs.New(fs.Options{BlockSize: 4096}, d, &clock, pool)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	l, err := NewLFS(cfg, fsys, pool)
	if err != nil {
		t.Fatal(err)
	}
	return l, d, pool
}

func TestLFSValidation(t *testing.T) {
	var clock sim.Clock
	d, _ := disk.New(disk.RZ57(), &clock)
	pool := mem.NewPool(8, 4096)
	fsys, _ := fs.New(fs.Options{BlockSize: 4096}, d, &clock, pool)
	bad := []LFSConfig{
		{PageSize: 1000},
		{PageSize: 4096, SegmentBytes: 5000},
	}
	for i, cfg := range bad {
		if _, err := NewLFS(cfg, fsys, pool); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Buffer larger than the pool must fail cleanly.
	if _, err := NewLFS(LFSConfig{PageSize: 4096, SegmentBytes: 64 * 4096}, fsys, pool); err == nil {
		t.Error("oversized buffer accepted")
	}
}

func TestLFSBufferPinsFrames(t *testing.T) {
	l, _, pool := newLFS(t, LFSConfig{SegmentBytes: 16 * 4096})
	if l.BufferFrames() != 16 {
		t.Fatalf("buffer frames = %d", l.BufferFrames())
	}
	if pool.OwnedBy(mem.Kernel) != 16 {
		t.Fatalf("kernel frames = %d", pool.OwnedBy(mem.Kernel))
	}
}

func TestLFSRoundTrip(t *testing.T) {
	l, _, _ := newLFS(t, LFSConfig{SegmentBytes: 8 * 4096})
	data := page(1, 4096)
	l.Write(PageKey{1, 0}, data)
	got := make([]byte, 4096)
	if !lfsRead(t, l, PageKey{1, 0}, got) {
		t.Fatal("read failed")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch (buffer-resident)")
	}
	// Force a flush and re-read from "disk".
	l.Flush()
	if !lfsRead(t, l, PageKey{1, 0}, got) || !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch (flushed)")
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLFSSequentialSegmentWrites(t *testing.T) {
	l, d, _ := newLFS(t, LFSConfig{SegmentBytes: 8 * 4096})
	for i := int32(0); i < 8; i++ {
		l.Write(PageKey{1, i}, page(int64(i), 4096))
	}
	// Exactly one device write for the whole segment, and buffered reads
	// cost nothing.
	if got := d.Stats().Writes; got != 1 {
		t.Fatalf("segment flush issued %d writes, want 1", got)
	}
	if got := d.Stats().BytesWritten; got != 8*4096 {
		t.Fatalf("bytes written = %d", got)
	}
}

func TestLFSMissingAndInvalidate(t *testing.T) {
	l, _, _ := newLFS(t, LFSConfig{SegmentBytes: 4 * 4096})
	if ok, err := l.Read(PageKey{1, 9}, make([]byte, 4096)); err != nil || ok {
		t.Fatalf("read of absent page: ok=%v err=%v", ok, err)
	}
	l.Write(PageKey{1, 0}, page(1, 4096))
	l.Invalidate(PageKey{1, 0})
	if l.Has(PageKey{1, 0}) {
		t.Fatal("Has after Invalidate")
	}
	l.Invalidate(PageKey{1, 0}) // idempotent
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLFSRewriteSupersedes(t *testing.T) {
	l, _, _ := newLFS(t, LFSConfig{SegmentBytes: 4 * 4096})
	key := PageKey{1, 0}
	l.Write(key, page(1, 4096))
	l.Flush()
	l.Write(key, page(2, 4096))
	got := make([]byte, 4096)
	l.Read(key, got)
	if !bytes.Equal(got, page(2, 4096)) {
		t.Fatal("stale data after rewrite")
	}
	st := l.Stats()
	if st.FragsFree == 0 {
		t.Fatal("rewrite left no garbage (tombstone expected)")
	}
}

func TestLFSCleanerReclaimsAndPreservesData(t *testing.T) {
	l, _, _ := newLFS(t, LFSConfig{SegmentBytes: 4 * 4096})
	contents := map[PageKey][]byte{}
	// Rewrite six pages often enough that dead pages pass the cleaner's
	// four-segment threshold again and again.
	for round := 0; round < 12; round++ {
		for i := int32(0); i < 6; i++ {
			key := PageKey{1, i}
			data := page(int64(round*10)+int64(i), 4096)
			contents[key] = data
			l.Write(key, data)
		}
	}
	if l.Stats().GCs == 0 {
		t.Fatal("cleaner never ran although rewrites left the log mostly garbage")
	}
	got := make([]byte, 4096)
	for key, want := range contents {
		if !lfsRead(t, l, key, got) {
			t.Fatalf("cleaner lost %v", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cleaner corrupted %v", key)
		}
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLFSChurn(t *testing.T) {
	l, _, _ := newLFS(t, LFSConfig{SegmentBytes: 8 * 4096})
	rng := rand.New(rand.NewSource(5))
	contents := map[PageKey][]byte{}
	buf := make([]byte, 4096)
	for step := 0; step < 2000; step++ {
		key := PageKey{1, int32(rng.Intn(24))}
		switch rng.Intn(3) {
		case 0:
			data := page(rng.Int63(), 4096)
			contents[key] = append([]byte(nil), data...)
			l.Write(key, data)
		case 1:
			l.Invalidate(key)
			delete(contents, key)
		case 2:
			want, live := contents[key]
			ok := lfsRead(t, l, key, buf)
			if ok != live {
				t.Fatalf("step %d: Read(%v) ok=%v want %v", step, key, ok, live)
			}
			if ok && !bytes.Equal(buf, want) {
				t.Fatalf("step %d: data mismatch for %v", step, key)
			}
		}
		if step%250 == 0 {
			if err := l.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().GCs == 0 {
		t.Fatal("cleaner never ran")
	}
}

// Property: any write/invalidate sequence keeps the clustered store's
// fragment accounting consistent.
func TestClusteredAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fsys, _, _ := newFSQuick()
		c, err := NewClustered(ClusterConfig{PageSize: 4096}, fsys)
		if err != nil {
			return false
		}
		for i, op := range ops {
			key := PageKey{1, int32(op % 16)}
			if op&0x8000 != 0 {
				c.Invalidate(key)
			} else {
				size := int(op)%3000 + 1
				c.WriteCluster([]Item{{Key: key, Data: page(int64(i), size), Compressed: true}}, true)
			}
			if c.CheckConsistency() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func newFSQuick() (*fs.FS, *disk.Disk, *sim.Clock) {
	var clock sim.Clock
	d, _ := disk.New(disk.RZ57(), &clock)
	pool := mem.NewPool(8, 4096)
	fsys, _ := fs.New(fs.Options{BlockSize: 4096}, d, &clock, pool)
	return fsys, d, &clock
}

// TestReadLendsOnlyWithoutNeighbors: a Read that brings neighbors returns
// them, and the page, from the store's read buffer, which only the next Read
// writes. A caller caching the neighbors one at a time may flush into the
// store and so compact it, rewriting platter blocks in place, before it
// reaches the last neighbor; the neighbors must not change under it. A Read
// that brings none lends the platter block itself, valid only until the
// store's next write.
func TestReadLendsOnlyWithoutNeighbors(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{GCTriggerFrac: 0.01})
	var items []Item
	for i := int32(0); i < 4; i++ { // one block of four one-fragment pages
		items = append(items, Item{Key: PageKey{1, i}, Data: page(int64(i), 1000), Compressed: true})
	}
	writeCluster(t, c, items, false)
	items = items[:0]
	for i := int32(0); i < 32; i++ { // a cluster's worth of garbage to be
		items = append(items, Item{Key: PageKey{2, i}, Data: page(int64(i)+50, 1000), Compressed: true})
	}
	writeCluster(t, c, items, false)

	_, _, nbrs, _ := readC(t, c, PageKey{1, 0})
	if len(nbrs) != 3 {
		t.Fatalf("%d neighbors, want 3", len(nbrs))
	}
	// Free page 1 and the garbage: the next write compacts the store, and
	// the dense rewrite moves pages 2 and 3 down over page 1's fragment.
	c.Invalidate(PageKey{1, 1})
	for i := int32(0); i < 32; i++ {
		c.Invalidate(PageKey{2, i})
	}
	lone := Item{Key: PageKey{3, 0}, Data: page(77, 4096)}
	writeCluster(t, c, []Item{lone}, false)
	if c.Stats().GCs != 1 {
		t.Fatalf("%d compactions, want the write to have compacted once", c.Stats().GCs)
	}
	for _, n := range nbrs {
		if !bytes.Equal(n.Data, page(int64(n.Key.Page), 1000)) {
			t.Errorf("neighbor %v is not what was stored once the store has compacted", n.Key)
		}
	}

	// The lone raw page is lent: rewriting its block shows through the view.
	data, _, nb, _ := readC(t, c, lone.Key)
	if nb != nil || !bytes.Equal(data, lone.Data) {
		t.Fatalf("lone page read back with %d neighbors, equal %t", len(nb), bytes.Equal(data, lone.Data))
	}
	c.Invalidate(lone.Key)
	next := Item{Key: PageKey{3, 1}, Data: page(78, 4096)}
	writeCluster(t, c, []Item{next}, false)
	if !bytes.Equal(data, next.Data) {
		t.Error("a read with no neighbors was copied, not lent: the next write into its block did not show through")
	}
}
