package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"compcache/internal/swap"
)

// Regression tests for the Insert contract: a failed Insert must have no
// observable side effects — no entries dropped, no hooks fired, no dirty
// batches flushed, no counters changed. Before the fix, an insert that
// reached the MaxFrames recycling path could reclaim frames (dropping live
// clean entries and firing onDrop) and flush dirty batches before a later
// pool.Alloc failure made it return false.

// fullFrameData is an entry payload whose footprint (data + 36-byte entry
// header) exactly fills one frame's usable space (4096 - 24-byte frame
// header).
const fullFrameData = 4096 - 24 - 36

func TestFailedInsertAtCapHasNoSideEffects(t *testing.T) {
	params := DefaultParams()
	params.MaxFrames = 2
	c, pool, _ := newTestCache(t, 2, params)
	drops := 0
	c.SetHooks(nil, func(swap.PageKey) { drops++ })

	// Frame 0: one clean (reclaimable) entry. Frame 1: one dirty entry that
	// cannot be cleaned (no flush hook). Pool is now empty.
	if !insert(t, c, key(0), blob(1, fullFrameData), false) {
		t.Fatal("setup insert 0 failed")
	}
	if !insert(t, c, key(1), blob(2, fullFrameData), true) {
		t.Fatal("setup insert 1 failed")
	}
	if pool.FreeCount() != 0 {
		t.Fatalf("pool free = %d, want 0", pool.FreeCount())
	}

	before := c.Stats()
	// Needs two frames; only one is reclaimable, so the insert must fail.
	// The buggy path reclaimed frame 0 (dropping the live clean entry and
	// firing onDrop) before discovering the shortfall.
	if insert(t, c, key(2), blob(3, 4090), true) {
		t.Fatal("insert succeeded with an unrecyclable ring")
	}

	if drops != 0 {
		t.Fatalf("failed insert fired onDrop %d times", drops)
	}
	if !c.Has(key(0)) || !c.Has(key(1)) {
		t.Fatal("failed insert discarded a live entry")
	}
	if c.Has(key(2)) {
		t.Fatal("failed insert left its own entry")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("failed insert changed counters: %+v -> %+v", before, after)
	}
	if c.FrameCount() != 2 || pool.FreeCount() != 0 {
		t.Fatalf("failed insert moved frames: cache %d, pool free %d", c.FrameCount(), pool.FreeCount())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestFailedInsertDoesNotFlush(t *testing.T) {
	params := DefaultParams()
	params.MaxFrames = 2
	c, pool, _ := newTestCache(t, 2, params)
	flushes, drops := 0, 0
	c.SetHooks(func(items []swap.Item) error { flushes++; return nil }, func(swap.PageKey) { drops++ })

	// Frame 0: full and dirty. Frame 1 (tail): a clean entry leaving 36
	// spare bytes. Pool empty.
	if !insert(t, c, key(0), blob(1, fullFrameData), true) {
		t.Fatal("setup insert 0 failed")
	}
	if !insert(t, c, key(1), blob(2, fullFrameData-36), false) {
		t.Fatal("setup insert 1 failed")
	}
	if pool.FreeCount() != 0 {
		t.Fatalf("pool free = %d, want 0", pool.FreeCount())
	}

	before := c.Stats()
	// need = 4126 with 36 bytes of tail slack: two fresh frames, but only
	// frame 0 may be recycled (the tail frame is about to receive this very
	// entry) and one recycle is not enough — even though cleaning could
	// eventually make both reclaimable. The insert must fail before
	// flushing anything.
	if insert(t, c, key(2), blob(3, 4090), true) {
		t.Fatal("insert succeeded needing more recycles than non-tail frames")
	}
	if flushes != 0 {
		t.Fatalf("failed insert flushed %d batches", flushes)
	}
	if drops != 0 {
		t.Fatalf("failed insert fired onDrop %d times", drops)
	}
	if !c.Has(key(0)) || !c.Has(key(1)) {
		t.Fatal("failed insert discarded a live entry")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("failed insert changed counters: %+v -> %+v", before, after)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCapRecyclingNeverRecyclesTheTailFrame(t *testing.T) {
	// The tail frame a pending insert appends into must never be recycled
	// out from under it, even when it is the only reclaimable frame.
	params := DefaultParams()
	params.MaxFrames = 2
	c, pool, _ := newTestCache(t, 2, params)

	// Frame 0: full and dirty (not reclaimable, no flush hook). Frame 1
	// (tail): clean entry with room to spare — reclaimable, but protected.
	if !insert(t, c, key(0), blob(1, fullFrameData), true) {
		t.Fatal("setup insert 0 failed")
	}
	if !insert(t, c, key(1), blob(2, 1000), false) {
		t.Fatal("setup insert 1 failed")
	}
	before := c.Stats()
	// Needs the tail slack plus one fresh frame; recycling may not touch
	// the tail, frame 0 is dirty, so this must fail cleanly. (The buggy
	// path reclaimed the tail frame and then appended into whatever frame
	// came last, corrupting the space accounting.)
	if insert(t, c, key(2), blob(3, 4000), true) {
		t.Fatal("insert succeeded by recycling its own tail frame")
	}
	if !c.Has(key(1)) {
		t.Fatal("tail frame's entry was dropped by a failed insert")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("failed insert changed counters: %+v -> %+v", before, after)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanSkipsDeadPrefix(t *testing.T) {
	// After mass drops, cleaning must not re-walk the dead prefix of the
	// insertion order on every pass: Clean advances (and compacts) the head
	// first, so the scan is O(live), not O(history).
	c, _, _ := newTestCache(t, 64, DefaultParams())
	c.SetHooks(noFlush, nil)

	const total, dropped = 1500, 1400
	for i := int32(0); i < total; i++ {
		if !insert(t, c, key(i), blob(int64(i), 64), true) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := int32(0); i < dropped; i++ {
		c.Drop(key(i))
	}
	if clean(t, c) == 0 {
		t.Fatal("nothing cleaned with dirty entries outstanding")
	}
	// The dead prefix is long enough to trigger compaction: the order deque
	// must have shed it rather than leaving 1400 dead entries to re-walk.
	if live := len(c.order) - c.head; live > total-dropped {
		t.Fatalf("order deque still holds %d entries past the head, want <= %d", live, total-dropped)
	}
	if len(c.order) >= total {
		t.Fatalf("order deque not compacted: len %d", len(c.order))
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertCopiesAtTheBoundary: the machine hands Insert its one compression
// scratch buffer and compresses the next page into it as soon as Insert
// returns, so the cache must hold its own copy — in a fresh slab and in a
// recycled one alike, of every size class.
func TestInsertCopiesAtTheBoundary(t *testing.T) {
	for class := 0; class < slabClasses; class++ {
		t.Run(fmt.Sprintf("%dKB", class+1), func(t *testing.T) {
			c, _, _ := newTestCache(t, 4, DefaultParams())
			scratch := make([]byte, 0, 4096)
			for round, k := range []swap.PageKey{key(0), key(1), key(0)} {
				want := blob(int64(round), class*1024+1000+round)
				data := append(scratch[:0], want...)
				if !insert(t, c, k, data, true) {
					t.Fatalf("round %d: Insert failed with a free pool", round)
				}
				for i := range data {
					data[i] = ^data[i]
				}
				got, sum, _, ok := c.Fault(k)
				if !ok || !bytes.Equal(got, want) || sum != Checksum(want) {
					t.Fatalf("round %d: the entry changed with the caller's buffer after Insert returned", round)
				}
				c.Drop(key(1)) // a no-op in round 0; frees a slab for round 2
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSlabClassesRecycle: entries whose sizes sit at the edges of the four
// slab classes are inserted over one another and reclaimed, round after
// round, so that each key's slab changes class every time. Once the
// freelists have their working size the cycle allocates nothing, and every
// slab an entry holds, fresh or recycled, has exactly its class's capacity.
func TestSlabClassesRecycle(t *testing.T) {
	c, _, _ := newTestCache(t, 16, DefaultParams())
	sizes := []struct{ n, capacity int }{
		{0, 1024}, {1, 1024}, {1024, 1024}, {1025, 2048},
		{2048, 2048}, {2049, 3072}, {3072, 3072}, {3073, 4096}, {4096, 4096},
	}
	datas := make([][]byte, len(sizes))
	for i, sz := range sizes {
		datas[i] = blob(int64(i), sz.n)
	}
	round := 0
	cycle := func(rounds int) {
		for end := round + rounds; round < end; round++ {
			for i := range sizes {
				k, j := key(int32(i)), (i+round)%len(sizes)
				sz := sizes[j]
				for !insert(t, c, k, datas[j], false) {
					if !releaseOldest(t, c) {
						t.Fatalf("round %d: no room for %d bytes and nothing to reclaim", round, sz.n)
					}
				}
				if e, _ := c.entries.Get(k); cap(e.Data) != sz.capacity {
					t.Fatalf("round %d: an entry of %d bytes holds a slab of %d, want %d", round, sz.n, cap(e.Data), sz.capacity)
				}
			}
		}
	}
	cycle(300) // past two compactions of the order deque
	var n uint64
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for try := 0; try < 3; try++ { // the runtime's own goroutines allocate now and then
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cycle(100)
			runtime.ReadMemStats(&after)
			if n = after.Mallocs - before.Mallocs; n == 0 {
				break
			}
		}
	}()
	if n != 0 {
		t.Errorf("%d mallocs in 100 warm rounds of inserts and kills", n)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
