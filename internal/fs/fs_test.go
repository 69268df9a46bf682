package fs

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"compcache/internal/disk"
	"compcache/internal/fault"
	"compcache/internal/mem"
	"compcache/internal/sim"
)

func newTestFS(t *testing.T, opts Options) (*FS, *disk.Disk, *sim.Clock, *mem.Pool) {
	t.Helper()
	if opts.BlockSize == 0 {
		opts.BlockSize = 4096
	}
	var clock sim.Clock
	d, err := disk.New(disk.RZ57(), &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool := mem.NewPool(64, opts.BlockSize)
	f, err := New(opts, d, &clock, pool)
	if err != nil {
		t.Fatal(err)
	}
	return f, d, &clock, pool
}

func TestNewValidation(t *testing.T) {
	var clock sim.Clock
	d, _ := disk.New(disk.RZ57(), &clock)
	pool := mem.NewPool(4, 4096)
	if _, err := New(Options{BlockSize: 0}, d, &clock, pool); err == nil {
		t.Error("BlockSize 0 accepted")
	}
	if _, err := New(Options{BlockSize: 1000}, d, &clock, pool); err == nil {
		t.Error("non-sector-multiple BlockSize accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	f := fsys.Create("data")
	msg := []byte("hello, sprite file system")
	f.WriteAt(msg, 100)
	got := make([]byte, len(msg))
	f.ReadAt(got, 100)
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	if f.Size() != 100+int64(len(msg)) {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestSparseReadsZero(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	f := fsys.Create("sparse")
	f.WriteAt([]byte("x"), 10000)
	got := make([]byte, 64)
	f.ReadAt(got, 0)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unwritten extent not zero")
	}
}

func TestCrossBlockIO(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	f := fsys.Create("span")
	data := make([]byte, 4096*3)
	rand.New(rand.NewSource(3)).Read(data)
	f.WriteAt(data, 2048) // spans 4 blocks, partial at both ends
	got := make([]byte, len(data))
	f.ReadAt(got, 2048)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-block round trip mismatch")
	}
}

func TestPartialWritePaysReadModifyWrite(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("rmw")
	// Populate one block and force it out of the cache.
	f.WriteAt(make([]byte, 4096), 0)
	fsys.DropCaches()
	r0 := d.Stats().Reads

	// Partial write to the uncached block: must read the whole block first.
	f.WriteAt(make([]byte, 2048), 0)
	if got := d.Stats().Reads - r0; got != 1 {
		t.Fatalf("partial write to uncached block issued %d reads, want 1", got)
	}
}

func TestFullBlockWriteSkipsRead(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("full")
	r0 := d.Stats().Reads
	f.WriteAt(make([]byte, 4096), 0) // exactly one whole block
	if got := d.Stats().Reads - r0; got != 0 {
		t.Fatalf("full-block write issued %d reads, want 0", got)
	}
}

func TestCacheHitAvoidsDisk(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("hot")
	f.WriteAt([]byte("abc"), 0)
	reads := d.Stats().Reads
	buf := make([]byte, 3)
	for i := 0; i < 10; i++ {
		f.ReadAt(buf, 0)
	}
	if d.Stats().Reads != reads {
		t.Fatal("cached reads went to disk")
	}
	hits, _ := fsys.CacheStats()
	if hits < 10 {
		t.Fatalf("hits = %d, want >= 10", hits)
	}
}

func TestSyncWritesDirtyBlocks(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("dirty")
	f.WriteAt(make([]byte, 4096*2), 0)
	w0 := d.Stats().Writes
	fsys.Sync()
	if got := d.Stats().Writes - w0; got != 2 {
		t.Fatalf("Sync wrote %d blocks, want 2", got)
	}
	// Second sync is a no-op.
	w1 := d.Stats().Writes
	fsys.Sync()
	if d.Stats().Writes != w1 {
		t.Fatal("Sync rewrote clean blocks")
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("evict")
	f.WriteAt(make([]byte, 4096), 0)
	w0 := d.Stats().Writes
	if ok, err := fsys.ReleaseOldest(); err != nil || !ok {
		t.Fatalf("ReleaseOldest: ok=%v err=%v", ok, err)
	}
	if d.Stats().Writes != w0+1 {
		t.Fatal("dirty eviction did not write back")
	}
	// Contents survive eviction via the platter.
	buf := make([]byte, 1)
	f.ReadAt(buf, 0)
}

func TestReleaseOldestEmptyCache(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	if ok, err := fsys.ReleaseOldest(); err != nil || ok {
		t.Fatalf("ReleaseOldest on empty cache: ok=%v err=%v", ok, err)
	}
	if _, ok := fsys.OldestAge(); ok {
		t.Fatal("OldestAge on empty cache reported ok")
	}
}

func TestLRUOrder(t *testing.T) {
	fsys, _, clock, _ := newTestFS(t, Options{})
	f := fsys.Create("lru")
	buf := make([]byte, 1)
	f.ReadAt(buf, 0) // block 0
	t0 := clock.Now()
	f.ReadAt(buf, 4096) // block 1
	f.ReadAt(buf, 0)    // touch block 0 again: block 1 is now LRU
	age, ok := fsys.OldestAge()
	if !ok {
		t.Fatal("OldestAge not ok")
	}
	if age < t0 {
		t.Fatalf("oldest age %v predates block 1 load at %v", age, t0)
	}
	fsys.ReleaseOldest()
	// Block 0 must still be cached: reading it is free.
	hits, _ := fsys.CacheStats()
	f.ReadAt(buf, 0)
	if h2, _ := fsys.CacheStats(); h2 != hits+1 {
		t.Fatal("evicted the recently used block instead of the LRU one")
	}
}

func TestRawIO(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("swap")
	data := make([]byte, 8192)
	rand.New(rand.NewSource(9)).Read(data)
	f.RawWrite(data, 4096, 8192)
	got := make([]byte, 8192)
	r0 := d.Stats().Reads
	f.RawRead(got, 4096, 8192)
	if !bytes.Equal(got, data) {
		t.Fatal("raw round trip mismatch")
	}
	if d.Stats().Reads != r0+1 {
		t.Fatal("raw read should be a single device op")
	}
}

func TestRawGranularityEnforced(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	f := fsys.Create("strict")
	defer func() {
		if recover() == nil {
			t.Fatal("sub-block raw write did not panic with AllowPartialIO=false")
		}
	}()
	f.RawWrite(make([]byte, 1024), 0, 1024)
}

// checkRaw tests alignment with a mask when the granularity is a power of two
// and by division when it is not; both refuse the same transfers, for the
// same reason, negative geometry included.
func TestRawGeometryMaskAndModuloAgree(t *testing.T) {
	for _, bs := range []int64{4096, 1536} {
		fsys, _, _, _ := newTestFS(t, Options{BlockSize: int(bs)})
		if masked := fsys.rawMask >= 0; masked != (bs == 4096) {
			t.Fatalf("block size %d: rawMask %d", bs, fsys.rawMask)
		}
		for _, c := range []struct {
			off, n int64
			want   string // what the panic says, "" for none
		}{
			{0, bs, ""}, {3 * bs, 2 * bs, ""}, {0, 0, ""},
			{1, bs, "granularity"}, {bs, bs - 1, "granularity"}, {bs / 2, bs, "granularity"},
			{-1, bs, "granularity"}, {0, -1, "granularity"},
			{-bs, bs, "extent"}, {0, -bs, "extent"}, {fileExtent / bs * bs, bs, "extent"},
		} {
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = r.(string)
					}
				}()
				fsys.checkRaw(c.off, int(c.n))
				return ""
			}()
			if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
				t.Errorf("block size %d: raw I/O of %d at %d: panic %q, want one about %q", bs, c.n, c.off, got, c.want)
			}
		}
	}
}

func TestRawPartialIOAllowed(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{AllowPartialIO: true})
	f := fsys.Create("loose")
	f.RawWrite(make([]byte, 1024), 512, 1024) // sector-aligned: fine
	got := make([]byte, 1024)
	f.RawRead(got, 512, 1024)
}

func TestRawWriteAsync(t *testing.T) {
	fsys, _, clock, _ := newTestFS(t, Options{})
	f := fsys.Create("async")
	done, err := f.RawWriteAsync(make([]byte, 4096), 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 0 {
		t.Fatal("async write advanced the clock")
	}
	if done == 0 {
		t.Fatal("async completion instant should be positive")
	}
	// Contents are visible immediately (platter write-through).
	got := make([]byte, 4096)
	f.RawRead(got, 0, 4096)
}

func TestOpenAndCreate(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	if _, err := fsys.Open("missing"); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	f := fsys.Create("x")
	f.WriteAt([]byte("abc"), 0)
	g, err := fsys.Open("x")
	if err != nil || g != f {
		t.Fatal("Open returned wrong file")
	}
	// Re-creating truncates.
	f2 := fsys.Create("x")
	if f2.Size() != 0 {
		t.Fatal("Create did not truncate")
	}
	buf := make([]byte, 3)
	f2.ReadAt(buf, 0)
	if !bytes.Equal(buf, make([]byte, 3)) {
		t.Fatal("truncated file retained data")
	}
}

func TestFramesConserved(t *testing.T) {
	fsys, _, _, pool := newTestFS(t, Options{})
	f := fsys.Create("cons")
	buf := make([]byte, 1)
	for i := int64(0); i < 20; i++ {
		f.ReadAt(buf, i*4096)
	}
	fsys.DropCaches()
	if pool.FreeCount() != pool.Total() {
		t.Fatalf("leaked frames: %d free of %d", pool.FreeCount(), pool.Total())
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctFilesDistinctExtents(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	a := fsys.Create("a")
	b := fsys.Create("b")
	a.WriteAt([]byte("AAAA"), 0)
	b.WriteAt([]byte("BBBB"), 0)
	got := make([]byte, 4)
	a.ReadAt(got, 0)
	if string(got) != "AAAA" {
		t.Fatal("file contents aliased")
	}
}

func TestStagingHelpers(t *testing.T) {
	fsys, d, _, _ := newTestFS(t, Options{})
	f := fsys.Create("staged")
	data := make([]byte, 8192)
	rand.New(rand.NewSource(21)).Read(data)

	// Staging writes contents without touching the device.
	w0 := d.Stats().Writes
	f.WriteStage(0, data)
	if d.Stats().Writes != w0 {
		t.Fatal("WriteStage touched the device")
	}
	// Staged contents are readable for free.
	got := make([]byte, 8192)
	r0 := d.Stats().Reads
	f.ReadStaged(0, got)
	if d.Stats().Reads != r0 {
		t.Fatal("ReadStaged touched the device")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("staged round trip mismatch")
	}
	// Flushing charges exactly one device write for the region.
	f.RawWriteStaged(0, 8192)
	if d.Stats().Writes != w0+1 {
		t.Fatalf("RawWriteStaged wrote %d ops", d.Stats().Writes-w0)
	}
	if d.Stats().BytesWritten != 8192 {
		t.Fatalf("bytes written = %d", d.Stats().BytesWritten)
	}
}

// storeSpy is a CompressedBlockCache that inspects what evict hands Store.
type storeSpy struct {
	store func(data []byte)
}

func (s storeSpy) Store(_ int32, _ int64, data []byte) (bool, error) { s.store(data); return true, nil }
func (storeSpy) Load(int32, int64, []byte) (bool, error)             { return false, nil }
func (storeSpy) Invalidate(int32, int64)                             {}

// Evicting into the compressed block cache lends Store the frame's own bytes
// — no copy — with the frame already free for the cache to take.
func TestEvictLendsTheFrame(t *testing.T) {
	fsys, _, _, pool := newTestFS(t, Options{})
	block := bytes.Repeat([]byte{0x5A}, 4096)
	fsys.Create("data").WriteAt(block, 0)
	frame := fsys.lruHead.frame
	stores := 0
	fsys.SetCompressedBlockCache(storeSpy{func(data []byte) {
		stores++
		if &data[0] != &pool.Bytes(frame)[0] {
			t.Error("Store got a copy, not the evicted frame's bytes")
		}
		id, ok := pool.Alloc(mem.CC)
		if !ok || id != frame {
			t.Errorf("Alloc(CC) mid-Store = %d, %t; want the evicted frame %d", id, ok, frame)
		}
		if !bytes.Equal(data, block) {
			t.Error("the lent block changed when the cache took its frame")
		}
		pool.Release(id)
	}})
	if ok, err := fsys.ReleaseOldest(); !ok || err != nil {
		t.Fatalf("ReleaseOldest = %t, %v", ok, err)
	}
	if stores != 1 {
		t.Fatalf("Store ran %d times, want 1", stores)
	}
	if err := pool.CheckConservation(); err != nil { // also: the loan is closed
		t.Fatal(err)
	}
}

// A raw transfer past the file's disk extent would land on the next file's
// addresses; a block number or a file size outside it in an image is refused.
func TestExtentEnforced(t *testing.T) {
	fsys, _, _, _ := newTestFS(t, Options{})
	f := fsys.Create("swap")
	for _, off := range []int64{fileExtent, fileExtent - 4096, -4096} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("raw write of two blocks at %d did not panic", off)
				}
			}()
			f.RawWrite(make([]byte, 8192), off, 8192)
		}()
	}
	for _, block := range []int64{-1, fileExtent / 4096, 1 << 40} {
		fresh, _, _, _ := newTestFS(t, Options{})
		img := &Image{Files: []FileImage{{Name: "swap", Blocks: []BlockImage{{Block: block, Data: make([]byte, 4096)}}}}}
		if err := fresh.LoadImage(img); err == nil || !strings.Contains(err.Error(), "outside the file's extent") {
			t.Errorf("image with block %d: err = %v, want the extent complaint", block, err)
		}
	}
	for _, size := range []int64{-1, fileExtent + 1, 1 << 40} {
		fresh, _, _, _ := newTestFS(t, Options{})
		var se *SizeError
		if err := fresh.LoadImage(&Image{Files: []FileImage{{Name: "swap", Size: size}}}); !errors.As(err, &se) || se.Size != size {
			t.Errorf("image with size %d: err = %v, want a *SizeError", size, err)
		}
	}
}

// TestImageSizeBoundedByWrittenExtent: recovery allocates and sweeps what a
// file's size claims, so an image may claim no more than the end of the
// highest block it brings — which every honest image satisfies, because the
// write that grows a file writes the block it grows into.
func TestImageSizeBoundedByWrittenExtent(t *testing.T) {
	block := func(n int64) BlockImage { return BlockImage{Block: n, Data: make([]byte, 4096)} }
	for _, tc := range []struct {
		blocks []BlockImage
		size   int64
		ok     bool
	}{
		{nil, 0, true},
		{nil, 1, false},
		{[]BlockImage{block(0), block(1)}, 8192, true},
		{[]BlockImage{block(0), block(1)}, 8193, false},
		{[]BlockImage{block(1)}, 8192, true}, // block 0 never written: a hole, still inside the written extent
		{[]BlockImage{block(1)}, 8193, false},
		{[]BlockImage{block(0)}, fileExtent, false}, // inside the disk extent, a gigabyte past the contents
	} {
		fresh, _, _, _ := newTestFS(t, Options{})
		err := fresh.LoadImage(&Image{Files: []FileImage{{Name: "swap", Size: tc.size, Blocks: tc.blocks}}})
		var se *SizeError
		if tc.ok && err != nil || !tc.ok && (!errors.As(err, &se) || se.Size != tc.size) {
			t.Errorf("%d block(s), size %d: err = %v; accepted should be %t", len(tc.blocks), tc.size, err, tc.ok)
		}
	}

	// An honest image passes whatever wrote it: cached, raw, staged, torn.
	fsys, _, _, _ := newTestFS(t, Options{})
	f := fsys.Create("swap")
	if err := f.WriteAt(make([]byte, 5000), 3000); err != nil {
		t.Fatal(err)
	}
	if err := f.RawWrite(make([]byte, 8192), 16384, 8192); err != nil {
		t.Fatal(err)
	}
	f.WriteStage(40960, make([]byte, 100))
	f.applyTorn(make([]byte, 4096), 65536, &fault.CrashError{Survived: 512})
	if f.Size() != 65536+512 {
		t.Fatalf("size %d after the torn write, want its surviving prefix counted", f.Size())
	}
	fresh, _, _, _ := newTestFS(t, Options{})
	if err := fresh.LoadImage(fsys.Image()); err != nil {
		t.Errorf("honest image refused: %v", err)
	}
}

// TestRawViewMatchesRawRead: RawView and RawReadStaged are RawRead without
// the copy. On twin file systems fed the same transfers they leave the same
// disk statistics and clock as RawRead, RawView's bytes are RawRead's, a
// range across a block boundary is refused without a charge, and an injected
// read error surfaces as RawRead's does, with nothing lent.
func TestRawViewMatchesRawRead(t *testing.T) {
	for _, partial := range []bool{false, true} {
		type twin struct {
			f     *File
			d     *disk.Disk
			clock *sim.Clock
		}
		newTwin := func(readErrors float64) twin {
			fsys, d, clock, _ := newTestFS(t, Options{AllowPartialIO: partial})
			in, err := fault.New(fault.Config{Seed: 4, ReadErrorRate: readErrors}, clock)
			if err != nil {
				t.Fatal(err)
			}
			d.SetFaultInjector(in)
			f := fsys.Create("swap")
			data := make([]byte, 4*4096)
			rand.New(rand.NewSource(8)).Read(data)
			if err := f.RawWrite(data, 0, len(data)); err != nil {
				t.Fatal(err)
			}
			return twin{f, d, clock}
		}
		same := func(what string, a, b twin) {
			t.Helper()
			if a.d.Stats() != b.d.Stats() || a.clock.Now() != b.clock.Now() {
				t.Errorf("partial %t, %s: stats %+v at %v, RawRead's %+v at %v",
					partial, what, b.d.Stats(), b.clock.Now(), a.d.Stats(), a.clock.Now())
			}
		}
		copied, lent, staged := newTwin(0), newTwin(0), newTwin(0)
		spans := [][2]int64{{0, 4096}, {8192, 4096}, {4096, 4096}}
		if partial {
			spans = append(spans, [2]int64{512, 1024}, [2]int64{4096 + 3072, 1024})
		}
		for _, s := range spans {
			off, n := s[0], int(s[1])
			got := make([]byte, n)
			if err := copied.f.RawRead(got, off, n); err != nil {
				t.Fatal(err)
			}
			view, ok, err := lent.f.RawView(off, n)
			if !ok || err != nil || !bytes.Equal(view, got) || cap(view) != n {
				t.Fatalf("partial %t: RawView(%d, %d) = %d bytes (cap %d), %t, %v; want RawRead's %d bytes, true, nil",
					partial, off, n, len(view), cap(view), ok, err, n)
			}
			if err := staged.f.RawReadStaged(off, n); err != nil {
				t.Fatal(err)
			}
			same("RawView", copied, lent)
			same("RawReadStaged", copied, staged)
		}

		// Across a block boundary: nothing charged, nothing lent.
		before, at := lent.d.Stats(), lent.clock.Now()
		off := int64(4096 - lent.f.fs.rawGran)
		if view, ok, err := lent.f.RawView(off, int(2*lent.f.fs.rawGran)); ok || view != nil || err != nil {
			t.Errorf("partial %t: RawView across a block boundary = %d bytes, %t, %v; want nothing, false, nil", partial, len(view), ok, err)
		}
		if lent.d.Stats() != before || lent.clock.Now() != at {
			t.Errorf("partial %t: a refused RawView charged the device", partial)
		}

		// An injected read error: the same error and charge as RawRead's.
		copied, lent, staged = newTwin(1), newTwin(1), newTwin(1)
		errRead := copied.f.RawRead(make([]byte, 4096), 0, 4096)
		view, ok, errView := lent.f.RawView(0, 4096)
		errStaged := staged.f.RawReadStaged(0, 4096)
		if errRead == nil || !ok || view != nil || errView == nil || errView.Error() != errRead.Error() {
			t.Errorf("partial %t: RawView under a read error = %d bytes, %t, %v; want nothing, true and RawRead's %v",
				partial, len(view), ok, errView, errRead)
		}
		if errStaged == nil || errStaged.Error() != errRead.Error() {
			t.Errorf("partial %t: RawReadStaged under a read error = %v, want RawRead's %v", partial, errStaged, errRead)
		}
		same("RawView under a read error", copied, lent)
		same("RawReadStaged under a read error", copied, staged)
	}
}
