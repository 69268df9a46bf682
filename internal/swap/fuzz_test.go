package swap

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"compcache/internal/disk"
	"compcache/internal/fs"
	"compcache/internal/mem"
	"compcache/internal/sim"
	"compcache/internal/snap"
)

// fuzzLFSConfig is the geometry every fuzz input is mounted under: 4-page
// segments keep images small enough for the fuzzer to mutate meaningfully.
func fuzzLFSConfig() LFSConfig {
	return LFSConfig{PageSize: 4096, SegmentBytes: 4 * 4096, Durable: true}
}

// durableLFSImage builds a genuine post-crash media image: a durable LFS
// populated with overwrites and invalidations (so the log holds stale and
// dead records), flushed mid-stage, with the raw swap file bytes returned.
// Pages written under extra keys follow.
func durableLFSImage(tb testing.TB, npages int, extra ...PageKey) []byte {
	tb.Helper()
	fsys, pool, _ := fuzzMedia(tb, "", nil)
	l, err := NewLFS(fuzzLFSConfig(), fsys, pool)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < npages+len(extra); i++ {
		key := PageKey{Seg: 1, Page: int32(i % (npages/2 + 1))} // overwrites
		if i >= npages {
			key = extra[i-npages]
		}
		if err := l.Write(key, page(int64(i), 4096)); err != nil {
			tb.Fatal(err)
		}
		if i%7 == 3 {
			l.Invalidate(PageKey{Seg: 1, Page: int32(i % 3)})
		}
	}
	if err := l.Flush(); err != nil {
		tb.Fatal(err)
	}
	file, err := fsys.Open("swap.lfs")
	if err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, file.Size())
	if err := file.RawRead(img, 0, len(img)); err != nil {
		tb.Fatal(err)
	}
	return img
}

// damaged returns the shapes of media damage every recovery corpus holds
// alongside its valid image: a torn half and a scattering of bit flips.
func damaged(valid []byte) (torn, flipped []byte) {
	flipped = append([]byte(nil), valid...)
	for i := 128; i < len(flipped); i += 997 {
		flipped[i] ^= 0x40
	}
	return valid[:len(valid)/2], flipped
}

// fuzzSeed is one seed input and the name of its checked-in corpus file. The
// recovery targets take the swap file's platter contents and the size the
// media image claims for the file.
type fuzzSeed struct {
	name string
	data []byte
	size int64
}

// mediaSeeds gives each image the size writing it would have left, and adds
// the sizes only a forged image carries: negative, past the file's extent,
// and inside the extent but beyond anything written. LoadImage refuses all
// three (TestForgedSizeSeedsAreRefused), so recovery never sizes a sweep or
// an allocation from them.
func mediaSeeds(valid []byte, seeds ...fuzzSeed) []fuzzSeed {
	for i := range seeds {
		seeds[i].size = blockCeil(len(seeds[i].data))
	}
	return append(seeds,
		fuzzSeed{"size-negative", valid, -1},
		fuzzSeed{"size-past-extent", valid, 1 << 40},
		fuzzSeed{"size-beyond-contents", valid, blockCeil(len(valid)) + 64<<10})
}

func blockCeil(n int) int64 { return int64(n+4095) &^ 4095 }

// lfsSeeds is FuzzRecoverLFS's seed corpus.
func lfsSeeds(tb testing.TB) []fuzzSeed {
	valid := durableLFSImage(tb, 24)
	torn, flipped := damaged(valid)
	return mediaSeeds(valid,
		fuzzSeed{name: "empty", data: []byte{}},
		fuzzSeed{name: "garbage", data: []byte("not a log segment")},
		fuzzSeed{name: "valid-image", data: valid},
		fuzzSeed{name: "torn-half", data: torn},
		fuzzSeed{name: "bit-flipped", data: flipped},
		fuzzSeed{name: "short-header", data: valid[:100]},
		fuzzSeed{name: "hostile-keys", data: durableLFSImage(tb, 6, hostileKeys...)})
}

// fuzzMedia builds a fresh file system; a non-empty img becomes the platter
// contents of the swap file called name.
func fuzzMedia(tb testing.TB, name string, img []byte) (*fs.FS, *mem.Pool, *sim.Clock) {
	tb.Helper()
	fsys, pool, clock, err := imageMedia(tb, name, img, blockCeil(len(img)))
	if err != nil {
		tb.Fatal(err)
	}
	return fsys, pool, clock
}

// imageMedia boots a fresh file system from a media image whose one file is
// called name, holds img and claims to be size bytes long; with neither
// contents nor a size the media has no file at all. The error is LoadImage's.
func imageMedia(tb testing.TB, name string, img []byte, size int64) (*fs.FS, *mem.Pool, *sim.Clock, error) {
	tb.Helper()
	if len(img) > 1<<20 {
		tb.Skip("image larger than the simulated platter budget (a valid size claims no more than the image holds)")
	}
	clock := new(sim.Clock)
	d, err := disk.New(disk.RZ57(), clock)
	if err != nil {
		tb.Fatal(err)
	}
	pool := mem.NewPool(64, 4096)
	fsys, err := fs.New(fs.Options{BlockSize: 4096}, d, clock, pool)
	if err != nil {
		tb.Fatal(err)
	}
	if len(img) == 0 && size == 0 {
		return fsys, pool, clock, nil
	}
	// Platter blocks are whole; zero-pad the tail. The padding reads back as
	// an unwritten region, like real media.
	file := fs.FileImage{Name: name, Size: size}
	for off := 0; off < len(img); off += 4096 {
		block := make([]byte, 4096)
		copy(block, img[off:])
		file.Blocks = append(file.Blocks, fs.BlockImage{Block: int64(off / 4096), Data: block})
	}
	return fsys, pool, clock, fsys.LoadImage(&fs.Image{Files: []fs.FileImage{file}})
}

// FuzzRecoverLFS feeds arbitrary bytes to the mount-time log scan as the
// swap file's platter contents, under an arbitrary file size. Whatever the
// media holds — valid images, torn tails, bit flips, garbage, a forged size —
// the reboot must not panic, and any store it does return must pass
// CheckConsistency.
func FuzzRecoverLFS(f *testing.F) {
	for _, seed := range lfsSeeds(f) {
		f.Add(seed.data, seed.size)
	}
	f.Fuzz(func(t *testing.T, img []byte, size int64) {
		fsys, pool, clock, err := imageMedia(t, "swap.lfs", img, size)
		if err != nil {
			return
		}
		l, rep, err := RecoverLFS(fuzzLFSConfig(), fsys, pool, nil, clock)
		if err != nil {
			return // rejecting the image is a valid outcome; panicking is not
		}
		if l == nil || rep == nil {
			t.Fatal("nil store or report without an error")
		}
		if err := l.CheckConsistency(); err != nil {
			t.Fatalf("recovered store inconsistent: %v", err)
		}
		if rep.RecoveredSegments > rep.ScannedSegments {
			t.Fatalf("report claims %d recovered of %d scanned", rep.RecoveredSegments, rep.ScannedSegments)
		}
	})
}

// fuzzClusteredConfig is the geometry every clustered fuzz input is mounted
// under: 4-page clusters of 1 KB fragments, commit records on.
func fuzzClusteredConfig() ClusterConfig {
	return ClusterConfig{PageSize: 4096, ClusterBytes: 4 * 4096, SpanBlocks: true, CommitRecords: true}
}

// durableClusteredImage builds a genuine clustered media image: batches of
// raw and short (compressed) pages with rewrites and invalidations, so the
// file holds superseded clusters, stale records and relocated copies. Pages
// written under extra keys follow.
func durableClusteredImage(tb testing.TB, npages int, extra ...PageKey) []byte {
	tb.Helper()
	fsys, _, _ := fuzzMedia(tb, "", nil)
	c, err := NewClustered(fuzzClusteredConfig(), fsys)
	if err != nil {
		tb.Fatal(err)
	}
	var batch []Item
	for i := 0; i < npages+len(extra); i++ {
		it := Item{Key: PageKey{Seg: 1, Page: int32(i % (npages/2 + 1))}, Data: page(int64(i), 4096)} // overwrites
		if i >= npages {
			it.Key = extra[i-npages]
		}
		if i%3 == 1 {
			it.Data, it.Compressed = it.Data[:700+100*i], true
		}
		it.Sum = crc32.ChecksumIEEE(it.Data)
		if batch = append(batch, it); len(batch) == 3 {
			if err := c.WriteCluster(batch, false); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
		if i%7 == 3 {
			c.Invalidate(PageKey{Seg: 1, Page: int32(i % 3)})
		}
	}
	file, err := fsys.Open("swap.clustered")
	if err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, file.Size())
	if err := file.RawRead(img, 0, len(img)); err != nil {
		tb.Fatal(err)
	}
	return img
}

// wrappedExtentRecord is one block holding a checksum-valid commit record
// whose only extent starts two fragments below MaxInt32 and is four long:
// summed in int32 its end wraps negative and slips under any upper bound.
func wrappedExtentRecord() []byte {
	img := make([]byte, 4096)
	rec := commitRecord{
		recordHead: recordHead{magic: commitMagic, version: recordVersion, count: 1, seq: 1},
		recFrags:   1,
		entries:    []commitEntry{{key: PageKey{Seg: 1}, extent: extent{start: math.MaxInt32 - 1, nfrags: 4, length: 100}}},
	}
	encodeRecord(snap.Encoder(new(snap.Writer)), img, &rec.recordHead, rec.walk)
	return img
}

// clusteredSeeds is FuzzRecoverClustered's seed corpus.
func clusteredSeeds(tb testing.TB) []fuzzSeed {
	valid := durableClusteredImage(tb, 24)
	torn, flipped := damaged(valid)
	return mediaSeeds(valid,
		fuzzSeed{name: "empty", data: []byte{}},
		fuzzSeed{name: "garbage", data: []byte("not a commit record")},
		fuzzSeed{name: "valid-image", data: valid},
		fuzzSeed{name: "torn-half", data: torn},
		fuzzSeed{name: "bit-flipped", data: flipped},
		fuzzSeed{name: "wrapped-extent", data: wrappedExtentRecord()},
		fuzzSeed{name: "hostile-keys", data: durableClusteredImage(tb, 6, hostileKeys...)})
}

// FuzzRecoverClustered is FuzzRecoverLFS for the clustered store's mount
// sweep: every fragment boundary of the image is probed for a commit record,
// so the parser sees whatever a hostile page's contents spell. Recovery must
// not panic, and a store it returns must pass the consistency check and
// stay consistent through a compaction.
func FuzzRecoverClustered(f *testing.F) {
	for _, seed := range clusteredSeeds(f) {
		f.Add(seed.data, seed.size)
	}
	f.Fuzz(func(t *testing.T, img []byte, size int64) {
		fsys, _, clock, err := imageMedia(t, "swap.clustered", img, size)
		if err != nil {
			return
		}
		c, rep, err := RecoverClustered(fuzzClusteredConfig(), fsys, nil, clock)
		if err != nil {
			return // rejecting the image is a valid outcome; panicking is not
		}
		if c == nil || rep == nil {
			t.Fatal("nil store or report without an error")
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("recovered store inconsistent: %v", err)
		}
		if rep.RecoveredSegments > rep.ScannedSegments {
			t.Fatalf("report claims %d recovered of %d scanned", rep.RecoveredSegments, rep.ScannedSegments)
		}
		if err := c.GC(); err != nil { // the recoverable format re-checks after the pass
			t.Fatalf("compaction of the recovered store: %v", err)
		}
	})
}

// TestForgedSizeSeedsAreRefused pins the size-* seeds outside the fuzz
// engine: the media never mounts, so neither recovery gets to allocate or
// sweep what the size claims, and the size one byte short of the refusal —
// all of the last block the image brings — mounts and recovers.
func TestForgedSizeSeedsAreRefused(t *testing.T) {
	for _, seed := range mediaSeeds(durableClusteredImage(t, 24)) {
		_, _, _, err := imageMedia(t, "swap.clustered", seed.data, seed.size)
		var se *fs.SizeError
		if !errors.As(err, &se) || se.Size != seed.size {
			t.Errorf("%s: LoadImage = %v, want a *fs.SizeError for size %d", seed.name, err, seed.size)
		}
	}
	valid := durableLFSImage(t, 24)
	if _, _, _, err := imageMedia(t, "swap.lfs", valid, blockCeil(len(valid))+1); err == nil {
		t.Error("a size one byte past the image's last block mounted")
	}
	fsys, pool, clock, err := imageMedia(t, "swap.lfs", valid, blockCeil(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	if _, rep, err := RecoverLFS(fuzzLFSConfig(), fsys, pool, nil, clock); err != nil || rep.RecoveredPages == 0 {
		t.Errorf("recovery at exactly the written extent: %+v, %v", rep, err)
	}
}

// TestRecoverClusteredRejectsWrappedExtent pins the crafted seed outside
// the fuzz engine: the hostile record is skipped, not indexed.
func TestRecoverClusteredRejectsWrappedExtent(t *testing.T) {
	fsys, _, clock := fuzzMedia(t, "swap.clustered", wrappedExtentRecord())
	c, rep, err := RecoverClustered(fuzzClusteredConfig(), fsys, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScannedSegments != 1 || rep.RecoveredPages != 0 || c.Has(PageKey{Seg: 1}) {
		t.Fatalf("report %+v, page indexed %t; want the one record scanned and nothing recovered", rep, c.Has(PageKey{Seg: 1}))
	}
}

// TestRecoverIndexesHostileKeys pins the hostile-keys seeds outside the fuzz
// engine: recovery accepts the records (their checksums are good) and indexes
// the keys, which is what makes the seeds exercise the page table's spill.
func TestRecoverIndexesHostileKeys(t *testing.T) {
	fsys, pool, clock := fuzzMedia(t, "swap.lfs", durableLFSImage(t, 6, hostileKeys...))
	l, _, err := RecoverLFS(fuzzLFSConfig(), fsys, pool, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	fsys, _, clock = fuzzMedia(t, "swap.clustered", durableClusteredImage(t, 6, hostileKeys...))
	c, _, err := RecoverClustered(fuzzClusteredConfig(), fsys, nil, clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range hostileKeys {
		if !l.Has(key) || !c.Has(key) {
			t.Errorf("%v recovered: lfs %t, clustered %t; want both", key, l.Has(key), c.Has(key))
		}
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpora when
// WRITE_FUZZ_CORPUS=1 is set; it only verifies they exist otherwise.
func TestWriteFuzzCorpus(t *testing.T) {
	for _, target := range []struct {
		name  string
		seeds func(testing.TB) []fuzzSeed
		sized bool // the target takes the file size after the bytes
	}{
		{"FuzzRecoverLFS", lfsSeeds, true},
		{"FuzzRecoverClustered", clusteredSeeds, true},
		{"FuzzPageTable", pageTableSeeds, false},
		{"FuzzClusteredGC", gcSeeds, false},
	} {
		dir := filepath.Join("testdata", "fuzz", target.name)
		if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) == 0 {
				t.Fatalf("seed corpus missing at %s (regenerate with WRITE_FUZZ_CORPUS=1): %v", dir, err)
			}
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, seed := range target.seeds(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data)
			if target.sized {
				body += fmt.Sprintf("int64(%d)\n", seed.size)
			}
			if err := os.WriteFile(filepath.Join(dir, seed.name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
