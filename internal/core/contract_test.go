package core

import (
	"bytes"
	"fmt"
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
// returns, so the cache must hold its own copy — in its frames, whether they
// are fresh from the pool or recycled from its own ring with an old entry's
// bytes still in them, and for an entry that lies in one, two or three of
// them.
func TestInsertCopiesAtTheBoundary(t *testing.T) {
	// lead fills the tail so that an entry of size bytes lies in frames
	// frames: one alone, one that crosses into a second frame, and a whole
	// page whose header starts ten bytes before the tail's end.
	for _, shape := range []struct{ frames, lead, size int }{
		{1, 0, 1000}, {2, 1000, 3500}, {3, 4026, 4096},
	} {
		for _, recycled := range []bool{false, true} {
			name := fmt.Sprintf("%dframes/fresh", shape.frames)
			if recycled {
				name = fmt.Sprintf("%dframes/recycled", shape.frames)
			}
			t.Run(name, func(t *testing.T) {
				c, _, _ := newTestCache(t, 8, DefaultParams())
				if recycled {
					for i := int32(0); c.FrameCount() < 4; i++ {
						insert(t, c, key(100+i), blob(int64(i), 3000), false)
					}
					for releaseOldest(t, c) {
					}
				}
				if shape.lead > 0 {
					insert(t, c, key(50), blob(50, shape.lead), false)
				}
				scratch := make([]byte, 0, 4096)
				want := blob(int64(shape.size), shape.size)
				data := append(scratch[:0], want...)
				if !insert(t, c, key(0), data, true) {
					t.Fatal("Insert failed with a free pool")
				}
				if e, _ := c.entries.Get(key(0)); len(e.frames) != shape.frames {
					t.Fatalf("the entry lies in %d frames, want %d", len(e.frames), shape.frames)
				}
				for i := range data {
					data[i] = ^data[i]
				}
				got, sum, _, ok := c.Fault(key(0))
				if !ok || !bytes.Equal(got, want) || sum != Checksum(want) {
					t.Fatal("the entry changed with the caller's buffer after Insert returned")
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
