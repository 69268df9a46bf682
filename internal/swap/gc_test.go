package swap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"compcache/internal/fs"
)

// A GC op stream is one configuration byte followed by 4-byte steps. The
// configuration's low bits pick the store: partial I/O (bit 0), SpanBlocks
// (bit 1) and CommitRecords (bit 2). A step is [op, key, len lo, len hi]:
//
//	op%4 == 0  stage an item for key%gcKeys in the pending batch; its length
//	           is the 16-bit value mod 4097, and 0 or 4096 means a raw page
//	1          write the pending batch (asynchronously when op&4 is set)
//	2          invalidate key%gcKeys
//	3          force a compaction pass
const (
	gcKeys     = 24
	gcStepSize = 4
)

// gcOpConfig is the store a GC op stream's configuration byte selects:
// 4-page clusters of 1-KB fragments.
func gcOpConfig(b byte) (fs.Options, ClusterConfig) {
	return fs.Options{AllowPartialIO: b&1 != 0},
		ClusterConfig{PageSize: 4096, ClusterBytes: 4 * 4096, SpanBlocks: b&2 != 0, CommitRecords: b&4 != 0}
}

// checkGCOps runs a GC op stream against a model of what each key last
// stored. After every compaction pass, forced or triggered by a write, each
// live page must read back its last-written bytes and checksum, no freed
// page may be present, and CheckConsistency must pass.
func checkGCOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	fsOpts, cfg := gcOpConfig(ops[0])
	c, _, _ := newClustered(t, fsOpts, cfg)
	model := make(map[PageKey][]byte)
	var pending []Item
	passes := uint64(0)
	verify := func(step int) {
		t.Helper()
		if c.Stats().GCs == passes {
			return
		}
		passes = c.Stats().GCs
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("step %d, after pass %d: %v", step, passes, err)
		}
		for k := int32(0); k < gcKeys; k++ {
			key := PageKey{Seg: 1, Page: k}
			want, live := model[key]
			data, sum, _, _, ok, err := c.Read(key)
			if err != nil || ok != live {
				t.Fatalf("step %d, after pass %d: Read(%v) ok=%t err=%v, want ok=%t", step, passes, key, ok, err, live)
			}
			if live && (!bytes.Equal(data, want) || sum != crc32.ChecksumIEEE(want)) {
				t.Fatalf("step %d, after pass %d: page %v does not read back its last-written bytes", step, passes, key)
			}
		}
	}
	flush := func(step int, async bool) {
		t.Helper()
		if err := c.WriteCluster(pending, async); err != nil {
			t.Fatalf("step %d: WriteCluster: %v", step, err)
		}
		for _, it := range pending {
			model[it.Key] = it.Data
		}
		pending = pending[:0]
		verify(step)
	}
	for step, i := 0, 1; i+gcStepSize <= len(ops); step, i = step+1, i+gcStepSize {
		op, key := ops[i], PageKey{Seg: 1, Page: int32(ops[i+1]) % gcKeys}
		switch op % 4 {
		case 0:
			n := int(binary.LittleEndian.Uint16(ops[i+2:])) % 4097
			it := Item{Key: key, Data: gcData(step, 4096)}
			if n != 0 && n != 4096 {
				it.Data, it.Compressed = it.Data[:n], true
			}
			it.Sum = crc32.ChecksumIEEE(it.Data)
			replaced := false
			for j := range pending {
				if pending[j].Key == key {
					pending[j], replaced = it, true
				}
			}
			if !replaced {
				pending = append(pending, it)
			}
		case 1:
			flush(step, op&4 != 0)
		case 2:
			c.Invalidate(key)
			delete(model, key)
		case 3:
			if err := c.GC(); err != nil {
				t.Fatalf("step %d: GC: %v", step, err)
			}
			verify(step)
		}
	}
	flush(len(ops), false)
	if err := c.GC(); err != nil {
		t.Fatalf("final GC: %v", err)
	}
	verify(len(ops))
}

// gcData is n bytes that differ for every step: cheaper than page, which
// seeds a math/rand source per call.
func gcData(step, n int) []byte {
	b := make([]byte, n)
	x := uint64(step)*0x9E3779B97F4A7C15 | 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// gcStep encodes one step of a GC op stream.
func gcStep(op byte, key int32, n int) []byte {
	return binary.LittleEndian.AppendUint16([]byte{op, byte(key)}, uint16(n))
}

// overtakingOps is the shape that makes the dense rewrite overtake pages it
// has not reached: whole-block I/O with block-spanning pages, one large
// cluster of three-fragment pages and so almost no garbage. Each rewrite
// batch of six pages (18 fragments, the first count past a 16-fragment
// cluster) is padded to 20, and the padding lands on the next page's first
// fragments while that page still lives there.
func overtakingOps() []byte {
	ops := []byte{2}
	for k := int32(0); k < gcKeys; k++ {
		ops = append(ops, gcStep(0, k, 2500)...)
	}
	ops = append(ops, gcStep(1, 0, 0)...)
	ops = append(ops, gcStep(2, gcKeys-1, 0)...)
	return append(ops, gcStep(3, 0, 0)...)
}

// gcSeeds is FuzzClusteredGC's seed corpus: the overtaking shape, and for
// each of the eight store configurations a random stream with every kind
// of step.
func gcSeeds(testing.TB) []fuzzSeed {
	seeds := []fuzzSeed{{name: "empty"}, {name: "overtaking", data: overtakingOps()}}
	for cfg := byte(0); cfg < 8; cfg++ {
		rng := rand.New(rand.NewSource(int64(cfg) + 1))
		ops := []byte{cfg}
		for range 120 {
			op := byte(rng.Intn(16))
			if op%4 == 3 && rng.Intn(4) != 0 {
				op &^= 1 // compact now and then, not every fourth step
			}
			ops = append(ops, gcStep(op, rng.Int31n(gcKeys), rng.Intn(4097))...)
		}
		seeds = append(seeds, fuzzSeed{name: fmt.Sprintf("churn-%d", cfg), data: ops})
	}
	return seeds
}

// FuzzClusteredGC drives a fuzzer-chosen stream of raw and compressed
// items, invalidations and forced compactions over every combination of
// partial I/O, SpanBlocks and CommitRecords, checking after every pass that
// each live page reads back what it last stored.
func FuzzClusteredGC(f *testing.F) {
	for _, seed := range gcSeeds(f) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1+gcStepSize*400 {
			t.Skip("every pass rereads the whole store: keep streams short")
		}
		checkGCOps(t, ops)
	})
}

// TestClusteredGCRewriteOvertakes pins the overtaking seed outside the fuzz
// engine, and checks that it is the shape it claims: the pass's first write
// reaches past the first page it does not carry.
func TestClusteredGCRewriteOvertakes(t *testing.T) {
	ops := overtakingOps()
	checkGCOps(t, ops)

	fsOpts, cfg := gcOpConfig(ops[0])
	c, _, _ := newClustered(t, fsOpts, cfg)
	var items []Item
	for k := int32(0); k < 7; k++ {
		items = append(items, Item{Key: PageKey{Seg: 1, Page: k}, Data: page(int64(k), 2500), Compressed: true})
	}
	writeCluster(t, c, items, false)
	seventh, _ := c.extents.Get(PageKey{Seg: 1, Page: 6})
	c.marked, c.byStart, c.hint = c.marked[:0], c.byStart[:0], 0 // as gcRewrite leaves them
	if l := c.layout(items[:6]); l.start+l.total <= seventh.start {
		t.Fatalf("the first batch's write ends at fragment %d, not past the seventh page's start %d", l.start+l.total, seventh.start)
	}
}

// TestClusteredGCHostMemoryBounded: a compaction pass over more than a
// megabyte of live extents allocates less than a tenth of the bytes it
// moves, in both the dense rewrite and the relocating pass — the pages
// travel through a staging buffer about a cluster in size, not a second
// copy of the live data. The store opens with a megabyte of garbage, so the
// relocating pass moves the live pages into platter blocks that exist
// rather than growing the file.
func TestClusteredGCHostMemoryBounded(t *testing.T) {
	for _, records := range []bool{false, true} {
		c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{PageSize: 4096, SpanBlocks: true, CommitRecords: records})
		write := func(seg int32, count int) (bytes int) {
			var items []Item
			for k := int32(0); k < int32(count); k++ {
				n := 1500 + int(k%5)*500
				items = append(items, Item{Key: PageKey{Seg: seg, Page: k}, Data: page(int64(k), n), Compressed: true})
				bytes += n
				if len(items) == 16 || int(k) == count-1 {
					writeCluster(t, c, items, false)
					items = items[:0]
				}
			}
			return bytes
		}
		write(2, 600)
		live := write(1, 600)
		for k := int32(0); k < 600; k++ {
			c.Invalidate(PageKey{Seg: 2, Page: k})
		}
		if live < 1<<20 {
			t.Fatalf("only %d live bytes", live)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.GC(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(live)/10 {
			t.Errorf("CommitRecords=%t: a pass over %d live bytes allocated %d", records, live, grew)
		}
		if got := c.Stats().GCs; got != 1 {
			t.Fatalf("%d passes, want the one forced", got)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}
