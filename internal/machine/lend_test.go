package machine

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"compcache/internal/core"
	"compcache/internal/fault"
	"compcache/internal/mem"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// TestClusteredGetCorruptsACopy: the clustered store lends its platter bytes
// to a read that brings no neighbors, and those must never change. With every
// swap read corrupted, two Gets of the same compressed page each come back
// one bit away from what was stored, and the store itself still reads clean,
// so a later verification passes. A raw page is not the injector's to
// corrupt and comes back as stored.
func TestClusteredGetCorruptsACopy(t *testing.T) {
	m := newMachine(t, Default(mb).WithCC().WithFaults(fault.Config{Seed: 1, SwapCorruptionRate: 1}))
	tier := m.store.(*clusteredTier)
	rng := rand.New(rand.NewSource(3))
	item := func(page int32, n int, compressed bool) swap.Item {
		it := swap.Item{Key: swap.PageKey{Page: page}, Data: make([]byte, n), Compressed: compressed}
		rng.Read(it.Data)
		it.Sum = core.Checksum(it.Data)
		if err := tier.Put(it); err != nil {
			t.Fatal(err)
		}
		return it
	}
	comp, raw := item(1, 1500, true), item(2, 4096, false)

	for i := 0; i < 2; i++ {
		got, compressed, sum, along, ok, err := tier.Get(comp.Key, nil)
		if !ok || err != nil || !compressed || sum != comp.Sum || along != nil {
			t.Fatalf("Get %d: ok %t, err %v, compressed %t, sum %08x, %d along", i, ok, err, compressed, sum, len(along))
		}
		if d := bitsApart(got, comp.Data); d != 1 {
			t.Errorf("Get %d: %d bits from the stored bytes, want 1", i, d)
		}
	}
	if got, _, _, _, ok, err := tier.Get(raw.Key, nil); !ok || err != nil || !bytes.Equal(got, raw.Data) {
		t.Errorf("raw Get: ok %t, err %v, equal %t; want the stored page", ok, err, bytes.Equal(got, raw.Data))
	}
	if n := m.faults.Stats().InjectedCorruptions; n != 2 {
		t.Errorf("%d corruptions injected, want 2", n)
	}
	for _, it := range []swap.Item{comp, raw} {
		data, sum, _, _, ok, err := tier.Clustered.Read(it.Key)
		if !ok || err != nil || !bytes.Equal(data, it.Data) || core.Checksum(data) != sum {
			t.Errorf("the store's copy of %v changed under the injector", it.Key)
		}
	}
}

// bitsApart counts the bits in which two equally long slices differ.
func bitsApart(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// TestNeighborsSurviveACompactionMidInsert: caching the neighbors a clustered
// read brought can flush the cache or evict a page, and the clustered write
// that follows can compact the store, rewriting platter blocks in place. The
// neighbors not yet cached must not see that: the store lends only reads that
// bring no neighbors. A store compacting at nearly every write is read page
// by page; every read with neighbors is handed to insertNeighbors, some of
// those calls must have compacted the store, and no neighbor may fail its
// checksum.
func TestNeighborsSurviveACompactionMidInsert(t *testing.T) {
	cfg := Default(mb / 4).WithCC()
	// Compact whenever a block's worth of garbage exists, and keep the cache
	// too small to take a neighbor without a flush now and then.
	cfg.Swap.GCTriggerFrac, cfg.Swap.ClusterBytes = 0.01, 4096
	cfg.CC.MaxFrames, cfg.CC.CleanReserve = 8, 1
	m := newMachine(t, cfg)
	tier := m.store.(*clusteredTier)
	s := m.NewSegment("heap", 2*mb)
	rng := rand.New(rand.NewSource(5))
	page := make([]byte, 4096)
	for pass := 0; pass < 2; pass++ { // the second pass leaves the first's copies as garbage
		for p := int32(0); p < s.Pages(); p++ {
			rng.Read(page[:300]) // a stored page fits one fragment: four to a block
			s.Write(int64(p)*4096, page)
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}

	// Each step dirties a page half the segment away, which invalidates its
	// stored copy (garbage) and sends a dirty page toward the cache, so that
	// making room for a neighbor takes a write.
	var reads, compacted int
	seg := m.VM.Segments()[0]
	for i := int32(0); i < seg.NPages; i++ {
		for j := int32(1); j <= 2; j++ {
			rng.Read(page[:300])
			s.Write(int64((i+j*seg.NPages/3)%seg.NPages)*4096, page)
		}
		p := seg.Page(i)
		if p.State != vm.Swapped || !tier.Has(p.Key) {
			continue
		}
		_, _, _, along, _, err := tier.Read(p.Key)
		if err != nil {
			t.Fatal(err)
		}
		if len(along) == 0 {
			continue
		}
		reads++
		gcs, detected := tier.Stats().GCs, m.fst.CorruptionsDetected
		m.insertNeighbors(along)
		if tier.Stats().GCs > gcs {
			compacted++
		}
		if m.fst.CorruptionsDetected != detected {
			t.Fatalf("caching %d neighbors of %v: %d failed their checksums", len(along), p.Key, m.fst.CorruptionsDetected-detected)
		}
		for _, n := range along { // the ones not cached as well
			if core.Checksum(n.Data) != n.Sum {
				t.Fatalf("neighbor %v of %v changed while its neighbors were cached", n.Key, p.Key)
			}
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if compacted == 0 {
		t.Fatalf("none of %d reads with neighbors compacted the store while caching them", reads)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	t.Logf("%d reads with neighbors, %d compacted mid-insert", reads, compacted)
}

// TestPageOutInsertTakesTheLentFrame: the frame a page leaves is on loan to
// PageOut, already free, so the cache entry its page becomes may be written
// into that very frame. Everything PageOut reads of the page — the plaintext
// it remembers for a page whose stay began with a cache hit — must be read
// before the insert. Here the page's stay began with a hit, it is then
// rewritten, and on its way out its entry does not fit the cache's tail
// frame, so the cache grows by the frame on loan. The page must come back as
// written, and the remembered plaintext must be what the entry decodes to.
func TestPageOutInsertTakesTheLentFrame(t *testing.T) {
	m := newMachine(t, ccConfig())
	s := m.NewSegment("heap", 4*4096)
	p := s.seg.Page(0)
	rng := rand.New(rand.NewSource(9))
	version := func() []byte {
		page := make([]byte, 4096)
		rng.Read(page[:2500]) // about 2.5 KB compressed: two do not share a frame
		return page
	}
	s.Write(0, version())
	evict(t, m, p)    // into the cache
	s.Touch(0, false) // a cache hit
	want := version()
	s.Write(0, want) // the stay keeps its hit; the entry goes

	lent := p.Frame
	evict(t, m, p)
	if p.State != vm.Compressed || m.Pool.Owner(lent) != mem.CC {
		t.Fatalf("the page went %v and its frame to %v: the cache did not take the frame on loan", p.State, m.Pool.Owner(lent))
	}
	if keepForms && plainSlotOf(t, m, p) < 0 {
		t.Fatal("a page whose stay began with a cache hit left without its plaintext remembered")
	}
	if err := m.VerifyPlainMemo(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	s.Read(0, got)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the page came back changed")
	}
}
