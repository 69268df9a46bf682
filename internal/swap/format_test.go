package swap

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/crc32"
	"testing"

	"compcache/internal/fs"
	"compcache/internal/sim"
	"compcache/internal/snap"
)

// TestCommitRecordBytesPinned pins the clustered store's commit record on
// the platter: a second cluster of raw and compressed items, whose record
// spans two 128-byte fragments, hashed with its zero padding. A change to
// the record's layout changes every recoverable image and fails here.
func TestCommitRecordBytesPinned(t *testing.T) {
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{FragSize: 128, SpanBlocks: true, CommitRecords: true})
	item := func(seg, pg int32, data []byte, compressed bool) Item {
		return Item{Key: PageKey{Seg: seg, Page: pg}, Data: data, Compressed: compressed, Sum: 0x01000193 * uint32(seg+pg+1)}
	}
	writeCluster(t, c, []Item{item(1, 0, page(1, 4096), false), item(1, 1, page(2, 300), true)}, false)
	second := []Item{
		item(2, 0, page(3, 4096), false),
		item(2, 7, page(4, 700), true),
		item(3, 1, page(5, 100), true),
		item(1, 0, page(6, 4096), false), // a rewrite
		item(2, 9, page(7, 1500), true),
	}
	writeCluster(t, c, second, false)
	var rec int32
	for _, it := range second {
		e, _ := c.extents.Get(it.Key)
		rec = max(rec, e.start+e.nfrags)
	}
	img := make([]byte, (c.file.Size()+4095)&^4095)
	if err := c.file.RawRead(img, 0, len(img)); err != nil {
		t.Fatal(err)
	}
	off := int(rec) * c.cfg.FragSize
	sum := sha256.Sum256(img[off : off+2*c.cfg.FragSize])
	if got, want := hex.EncodeToString(sum[:]), "e82a3aa45cae956bd8983810dc0acb885b69ca96eb74d91bce375d77cb0e6c69"; got != want {
		t.Fatalf("commit record sha256 = %s, want %s", got, want)
	}
}

// TestCommitRecordsRefuseAnOversizedBatch: a commit record counts its items
// in 16 bits, so a bigger batch must be refused before it reaches the media —
// written, it would be acknowledged and then lost to recovery.
func TestCommitRecordsRefuseAnOversizedBatch(t *testing.T) {
	c, fsys, d := newClustered(t, fs.Options{}, ClusterConfig{FragSize: 512, CommitRecords: true})
	data := page(1, 100)
	items := make([]Item, 1<<16)
	for i := range items {
		items[i] = Item{Key: PageKey{Seg: 1, Page: int32(i)}, Data: data, Compressed: true, Sum: crc32.ChecksumIEEE(data)}
	}
	if err := c.WriteCluster(items, false); err == nil {
		t.Fatal("a 65,536-item batch was acknowledged")
	}
	if c.Has(items[0].Key) || c.Stats().PagesOut != 0 || d.Stats().Writes != 0 {
		t.Fatalf("the refused batch changed the store: page indexed %t, %+v, %d device writes", c.Has(items[0].Key), c.Stats(), d.Stats().Writes)
	}
	writeCluster(t, c, items[:3], false)
	if _, rep, err := RecoverClustered(c.cfg, fsys, nil, new(sim.Clock)); err != nil || rep.RecoveredPages != 3 {
		t.Fatalf("recovery after the refusal: %+v, %v", rep, err)
	}
	loose := ClusterConfig{PageSize: 4096, FragSize: 512, ClusterBytes: 65536 * 512}
	if _, err := NewClustered(loose, fsys); err != nil {
		t.Fatalf("without commit records the cluster size is free: %v", err)
	}
}

// TestRecordProbeAllocatesNothing: recovery decodes at every fragment
// boundary, and the stores encode a record on every durable write; neither
// may cost an allocation where no record is found or once the scratch is
// grown.
func TestRecordProbeAllocatesNothing(t *testing.T) {
	var rec commitRecord
	var hdr segmentHeader
	dec := snap.Decoder(new(snap.Reader))
	for name, src := range map[string][]byte{"zeros": make([]byte, 4096), "page": page(1, 4096)} {
		if n := testing.AllocsPerRun(100, func() { rec.decode(dec, src, 1024) }); n != 0 {
			t.Errorf("probing %s for a commit record: %v allocations", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { hdr.decode(dec, src, 64) }); n != 0 {
			t.Errorf("probing %s for a segment header: %v allocations", name, n)
		}
	}
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{CommitRecords: true})
	c.placeBuf = []commitEntry{{key: PageKey{Seg: 1}, extent: extent{start: 5, nfrags: 1, length: 700, compressed: true}}}
	dst := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { c.encodeCommit(dst, 1) }); n != 0 {
		t.Errorf("encoding a commit record: %v allocations", n)
	}
	if !rec.decode(dec, dst, 1024) || rec.entries[0].start != 5 {
		t.Fatalf("the encoded record does not decode: %+v", rec)
	}
}
