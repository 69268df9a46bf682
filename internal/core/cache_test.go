package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"compcache/internal/mem"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/swap"
)

// TestEntryIsOneAllocation: a new Entry and the array backing its frames are
// one allocation, in the 112-byte size class. A field that grows Entry past
// 112 bytes moves every entry into the 128-byte class.
func TestEntryIsOneAllocation(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 112 {
		t.Errorf("core.Entry is %d bytes, want at most 112", n)
	}
	c, _, _ := newTestCache(t, 8, DefaultParams())
	if n := testing.AllocsPerRun(100, func() { c.newEntry() }); n != 1 {
		t.Errorf("newEntry makes %v allocations, want 1", n)
	}
}

func newTestCache(t *testing.T, frames int, params Params) (*Cache, *mem.Pool, *sim.Clock) {
	t.Helper()
	var clock sim.Clock
	pool := mem.NewPool(frames, 4096)
	c := New(params, &clock, pool)
	return c, pool, &clock
}

func key(p int32) swap.PageKey { return swap.PageKey{Seg: 1, Page: p} }

func blob(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// insert is a test helper for the common no-flush-error case.
func insert(t *testing.T, c *Cache, k swap.PageKey, data []byte, dirty bool) bool {
	t.Helper()
	ok, err := c.Insert(k, data, dirty)
	if err != nil {
		t.Fatalf("Insert(%v): %v", k, err)
	}
	return ok
}

// clean is a test helper asserting Clean itself does not fail.
func clean(t *testing.T, c *Cache) int {
	t.Helper()
	n, err := c.Clean()
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	return n
}

// releaseOldest is a test helper asserting ReleaseOldest does not fail.
func releaseOldest(t *testing.T, c *Cache) bool {
	t.Helper()
	ok, err := c.ReleaseOldest()
	if err != nil {
		t.Fatalf("ReleaseOldest: %v", err)
	}
	return ok
}

// noFlush is a FlushFunc that accepts everything.
func noFlush([]swap.Item) error { return nil }

func TestInsertAndFault(t *testing.T) {
	c, _, _ := newTestCache(t, 4, DefaultParams())
	data := blob(1, 1000)
	if !insert(t, c, key(0), data, true) {
		t.Fatal("Insert failed with free pool")
	}
	if !c.Has(key(0)) || c.Len() != 1 {
		t.Fatal("entry not indexed")
	}
	got, sum, dirty, ok := c.Fault(key(0))
	if !ok || !dirty || !bytes.Equal(got, data) {
		t.Fatalf("Fault ok=%v dirty=%v", ok, dirty)
	}
	if sum != Checksum(data) {
		t.Fatalf("Fault sum = %#x, want %#x", sum, Checksum(data))
	}
	// Fault retains the entry (§4.1's retained compressed copies): a second
	// fault hits again, and Drop removes it.
	if !c.Has(key(0)) {
		t.Fatal("entry removed by Fault")
	}
	if _, _, _, ok := c.Fault(key(0)); !ok {
		t.Fatal("second Fault missed")
	}
	c.Drop(key(0))
	if c.Has(key(0)) {
		t.Fatal("entry live after Drop")
	}
	st := c.Stats()
	if st.Inserts != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultMiss(t *testing.T) {
	c, _, _ := newTestCache(t, 2, DefaultParams())
	if _, _, _, ok := c.Fault(key(9)); ok {
		t.Fatal("Fault hit on empty cache")
	}
	if c.Stats().Misses != 1 {
		t.Fatal("miss not counted")
	}
}

func TestEntriesSpanFrames(t *testing.T) {
	c, _, _ := newTestCache(t, 4, DefaultParams())
	// Three 3000-byte entries: 9108 bytes of footprint in 4072-byte usable
	// frames must span and use 3 frames.
	for i := int32(0); i < 3; i++ {
		if !insert(t, c, key(i), blob(int64(i), 3000), true) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if c.FrameCount() != 3 {
		t.Fatalf("FrameCount = %d, want 3", c.FrameCount())
	}
	for i := int32(0); i < 3; i++ {
		got, _, _, ok := c.Fault(key(i))
		if !ok || !bytes.Equal(got, blob(int64(i), 3000)) {
			t.Fatalf("entry %d corrupted", i)
		}
	}
	// Spanning entries stay live across faults.
	if c.Len() != 3 {
		t.Fatalf("Len = %d after faults, want 3", c.Len())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFailsWhenPoolExhausted(t *testing.T) {
	c, pool, _ := newTestCache(t, 1, DefaultParams())
	if !insert(t, c, key(0), blob(1, 3000), true) {
		t.Fatal("first insert should succeed")
	}
	// Pool is now empty; an insert needing a new frame must fail without
	// side effects.
	if insert(t, c, key(1), blob(2, 3000), true) {
		t.Fatal("insert succeeded with exhausted pool")
	}
	if c.Has(key(1)) {
		t.Fatal("failed insert left an entry")
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFramesCap(t *testing.T) {
	params := DefaultParams()
	params.MaxFrames = 2
	c, _, _ := newTestCache(t, 8, params)
	var inserted int32
	for i := int32(0); i < 8; i++ {
		if !insert(t, c, key(i), blob(int64(i), 3000), true) {
			break
		}
		inserted++
	}
	if c.FrameCount() > 2 {
		t.Fatalf("cache grew to %d frames despite MaxFrames=2", c.FrameCount())
	}
	if inserted == 0 || inserted > 3 {
		t.Fatalf("inserted %d entries into a 2-frame cache", inserted)
	}
}

func TestOversizeEntryPanics(t *testing.T) {
	c, _, _ := newTestCache(t, 4, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("oversize insert did not panic")
		}
	}()
	c.Insert(key(0), blob(1, 5000), true)
}

func TestCleanMarksEntriesAndFlushes(t *testing.T) {
	c, _, _ := newTestCache(t, 8, DefaultParams())
	var flushed []swap.Item
	c.SetHooks(func(items []swap.Item) error { flushed = append(flushed, items...); return nil }, nil)
	for i := int32(0); i < 4; i++ {
		insert(t, c, key(i), blob(int64(i), 1000), true)
	}
	if c.DirtyBytes() == 0 {
		t.Fatal("no dirty bytes after dirty inserts")
	}
	n := clean(t, c)
	if n != 4 {
		t.Fatalf("Clean cleaned %d entries, want 4", n)
	}
	if len(flushed) != 4 {
		t.Fatalf("flush saw %d items", len(flushed))
	}
	for _, it := range flushed {
		if it.Sum != Checksum(it.Data) {
			t.Fatalf("flushed item %v carries wrong checksum", it.Key)
		}
	}
	if c.DirtyBytes() != 0 {
		t.Fatalf("dirty bytes = %d after Clean", c.DirtyBytes())
	}
	if clean(t, c) != 0 {
		t.Fatal("second Clean found work")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanBatchBounded(t *testing.T) {
	params := DefaultParams()
	params.CleanBatchBytes = 4096
	c, _, _ := newTestCache(t, 16, params)
	c.SetHooks(noFlush, nil)
	for i := int32(0); i < 10; i++ {
		insert(t, c, key(i), blob(int64(i), 2000), true)
	}
	n := clean(t, c)
	// 2036-byte footprints: the batch passes 4096 bytes after 3 entries.
	if n < 2 || n > 3 {
		t.Fatalf("Clean batch = %d entries, want 2-3", n)
	}
}

func TestCleanWithoutHook(t *testing.T) {
	c, _, _ := newTestCache(t, 4, DefaultParams())
	insert(t, c, key(0), blob(1, 100), true)
	if clean(t, c) != 0 {
		t.Fatal("Clean without a flush hook should do nothing")
	}
}

func TestReleaseOldestDropsCleanEntries(t *testing.T) {
	c, pool, _ := newTestCache(t, 8, DefaultParams())
	var dropped []swap.PageKey
	c.SetHooks(noFlush, func(k swap.PageKey) { dropped = append(dropped, k) })
	for i := int32(0); i < 3; i++ {
		insert(t, c, key(i), blob(int64(i), 1200), false) // clean inserts
	}
	frames := c.FrameCount()
	if !releaseOldest(t, c) {
		t.Fatal("ReleaseOldest failed with clean entries")
	}
	if c.FrameCount() != frames-1 {
		t.Fatal("frame not released")
	}
	if len(dropped) == 0 {
		t.Fatal("drop hook not called for live clean entries")
	}
	for _, k := range dropped {
		if c.Has(k) {
			t.Fatalf("dropped entry %v still live", k)
		}
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseOldestCleansDirtyFirst(t *testing.T) {
	c, _, _ := newTestCache(t, 8, DefaultParams())
	flushes := 0
	c.SetHooks(func(items []swap.Item) error { flushes += len(items); return nil }, nil)
	insert(t, c, key(0), blob(1, 1000), true)
	if !releaseOldest(t, c) {
		t.Fatal("ReleaseOldest failed")
	}
	if flushes == 0 {
		t.Fatal("dirty entry reclaimed without flushing")
	}
	if c.FrameCount() != 0 {
		t.Fatalf("FrameCount = %d", c.FrameCount())
	}
}

func TestReleaseOldestNoFlushHookNoDirtyReclaim(t *testing.T) {
	c, _, _ := newTestCache(t, 4, DefaultParams())
	insert(t, c, key(0), blob(1, 1000), true)
	if releaseOldest(t, c) {
		t.Fatal("dirty frame reclaimed with no way to persist it")
	}
}

func TestMidReclaim(t *testing.T) {
	c, _, _ := newTestCache(t, 8, DefaultParams())
	c.SetHooks(noFlush, nil)
	// Frame 0 gets a dirty entry; frame 1 a clean one. Fill each frame
	// exactly so entries do not span.
	usable := 4096 - 24 - 36
	insert(t, c, key(0), blob(1, usable), true)  // fills frame 0, dirty
	insert(t, c, key(1), blob(2, usable), false) // fills frame 1, clean
	if c.FrameCount() != 2 {
		t.Fatalf("FrameCount = %d, want 2", c.FrameCount())
	}
	// Prevent cleaning from making frame 0 reclaimable by removing the
	// flush hook.
	c.SetHooks(nil, nil)
	if !releaseOldest(t, c) {
		t.Fatal("ReleaseOldest failed")
	}
	if c.Stats().MidReclaims != 1 {
		t.Fatalf("MidReclaims = %d, want 1", c.Stats().MidReclaims)
	}
	if !c.Has(key(0)) || c.Has(key(1)) {
		t.Fatal("wrong entry reclaimed")
	}
}

func TestOldestAge(t *testing.T) {
	c, _, clock := newTestCache(t, 8, DefaultParams())
	if _, ok := c.OldestAge(); ok {
		t.Fatal("OldestAge on empty cache")
	}
	insert(t, c, key(0), blob(1, 100), true)
	t0 := clock.Now()
	clock.Advance(1000)
	insert(t, c, key(1), blob(2, 100), true)
	age, ok := c.OldestAge()
	if !ok || age != t0 {
		t.Fatalf("OldestAge = %v ok=%v, want %v", age, ok, t0)
	}
	// Kill the oldest; age advances to the second entry.
	c.Drop(key(0))
	age, ok = c.OldestAge()
	if !ok || age <= t0 {
		t.Fatalf("OldestAge after fault = %v ok=%v", age, ok)
	}
}

func TestReplaceExistingEntry(t *testing.T) {
	c, _, _ := newTestCache(t, 8, DefaultParams())
	insert(t, c, key(0), blob(1, 500), false)
	insert(t, c, key(0), blob(2, 500), true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace", c.Len())
	}
	got, sum, dirty, ok := c.Fault(key(0))
	if !ok || !dirty || !bytes.Equal(got, blob(2, 500)) {
		t.Fatal("replace kept stale data")
	}
	if sum != Checksum(blob(2, 500)) {
		t.Fatal("replace kept stale checksum")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDrop(t *testing.T) {
	c, _, _ := newTestCache(t, 8, DefaultParams())
	insert(t, c, key(0), blob(1, 500), true)
	c.Drop(key(0))
	if c.Has(key(0)) {
		t.Fatal("entry live after Drop")
	}
	c.Drop(key(0)) // idempotent
	if c.DirtyBytes() != 0 || c.LiveBytes() != 0 {
		t.Fatal("byte accounting wrong after Drop")
	}
}

func TestReclaimableFrames(t *testing.T) {
	c, _, _ := newTestCache(t, 8, DefaultParams())
	usable := 4096 - 24 - 36
	insert(t, c, key(0), blob(1, usable), false)
	insert(t, c, key(1), blob(2, usable), true)
	if got := c.ReclaimableFrames(); got != 1 {
		t.Fatalf("ReclaimableFrames = %d, want 1", got)
	}
}

// TestReclaimableCountMatchesScan drives every transition that moves the
// per-frame dirty counts and the reclaimable-frame count — dirty and clean
// inserts (spanning frames, superseding, recycling at the cap), cleaning,
// drops, frame release from the head and from the middle, and a snapshot
// restored into a fresh cache — and after each step has CheckConsistency
// recount both by the full scan they replaced.
func TestReclaimableCountMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		params := DefaultParams()
		params.CleanBatchBytes = 4096
		if seed%2 == 0 {
			params.MaxFrames = 8
		}
		c, pool, clock := newTestCache(t, 12, params)
		c.SetHooks(noFlush, nil)
		rng := rand.New(rand.NewSource(seed))
		restores := 0
		for step := 0; step < 1500; step++ {
			clock.Advance(sim.Duration(rng.Intn(1000)))
			k := key(int32(rng.Intn(24)))
			switch op := rng.Intn(20); {
			case op < 9:
				insert(t, c, k, blob(rng.Int63(), rng.Intn(3000)+1), rng.Intn(3) > 0)
			case op < 12:
				c.Drop(k)
			case op < 15:
				clean(t, c)
			case op < 19:
				releaseOldest(t, c)
			default:
				pool2 := mem.NewPool(12, 4096)
				c2 := New(params, clock, pool2)
				c2.SetHooks(noFlush, nil)
				err := snap.RoundTrip(
					func(sc *snap.Codec) { pool.Snap(sc); c.Snap(sc) },
					func(sc *snap.Codec) { pool2.Snap(sc); c2.Snap(sc) })
				if err != nil {
					t.Fatalf("seed %d step %d: snapshot round trip: %v", seed, step, err)
				}
				if c2.ReclaimableFrames() != c.ReclaimableFrames() {
					t.Fatalf("seed %d step %d: restored cache counts %d reclaimable frames, original %d",
						seed, step, c2.ReclaimableFrames(), c.ReclaimableFrames())
				}
				c, pool = c2, pool2
				restores++
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if st := c.Stats(); st.MidReclaims == 0 || st.FrameShrinks == st.MidReclaims || st.CleanWrites == 0 || restores == 0 {
			t.Errorf("seed %d: run missed a transition: %+v, %d restores", seed, st, restores)
		}
	}
}

// Churn test: random inserts, faults, drops, cleans and reclaims keep the
// accounting consistent, preserve data integrity, and conserve frames.
func TestCacheChurn(t *testing.T) {
	c, pool, clock := newTestCache(t, 16, DefaultParams())
	shadow := make(map[swap.PageKey][]byte)
	shadowDirty := make(map[swap.PageKey]bool)
	c.SetHooks(
		noFlush,
		func(k swap.PageKey) {
			delete(shadow, k)
			delete(shadowDirty, k)
		})
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 3000; step++ {
		clock.Advance(sim.Duration(rng.Intn(1000)))
		k := key(int32(rng.Intn(30)))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			data := blob(rng.Int63(), rng.Intn(3000)+1)
			dirty := rng.Intn(2) == 0
			if insert(t, c, k, data, dirty) {
				shadow[k] = data
				shadowDirty[k] = dirty
			}
		case 4, 5, 6:
			got, sum, dirty, ok := c.Fault(k)
			want, live := shadow[k]
			if ok != live {
				t.Fatalf("step %d: Fault(%v) ok=%v, want %v", step, k, ok, live)
			}
			if ok {
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: Fault(%v) data mismatch", step, k)
				}
				if sum != Checksum(want) {
					t.Fatalf("step %d: Fault(%v) checksum mismatch", step, k)
				}
				if dirty != shadowDirty[k] {
					t.Fatalf("step %d: Fault(%v) dirty=%v, want %v", step, k, dirty, shadowDirty[k])
				}
				// Entries are retained by Fault; emulate the machine's
				// Dirtied hook by dropping half the time.
				if rng.Intn(2) == 0 {
					c.Drop(k)
					delete(shadow, k)
					delete(shadowDirty, k)
				}
			}
		case 7:
			c.Drop(k)
			delete(shadow, k)
			delete(shadowDirty, k)
		case 8:
			n := clean(t, c)
			if n > 0 {
				for sk := range shadowDirty {
					if c.Has(sk) {
						// Cleaned entries are no longer dirty; our shadow
						// cannot see which were cleaned, so just clear all
						// dirtiness hints (Fault dirty checks only apply to
						// still-dirty entries).
						shadowDirty[sk] = false
					}
				}
				// Resync dirty flags from the cache's view.
				for sk := range shadow {
					if e, ok := c.entries.Get(sk); ok {
						shadowDirty[sk] = e.Dirty
					}
				}
			}
		case 9:
			releaseOldest(t, c)
		}
		if step%100 == 0 {
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := pool.CheckConservation(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Every surviving entry is intact.
	for k, want := range shadow {
		if !c.Has(k) {
			continue // dropped by reclaim
		}
		got, _, _, ok := c.Fault(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("final: entry %v corrupted", k)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkToZero(t *testing.T) {
	c, pool, _ := newTestCache(t, 8, DefaultParams())
	c.SetHooks(noFlush, nil)
	for i := int32(0); i < 6; i++ {
		insert(t, c, key(i), blob(int64(i), 2000), true)
	}
	for releaseOldest(t, c) {
	}
	if c.FrameCount() != 0 || c.Len() != 0 {
		t.Fatalf("cache not empty: %d frames, %d entries", c.FrameCount(), c.Len())
	}
	if pool.FreeCount() != pool.Total() {
		t.Fatal("frames leaked")
	}
}

func TestPrefillAndMinFrames(t *testing.T) {
	params := DefaultParams()
	params.MaxFrames = 4
	params.MinFrames = 4
	c, pool, _ := newTestCache(t, 8, params)
	c.SetHooks(noFlush, nil)
	c.Prefill(4)
	if c.FrameCount() != 4 {
		t.Fatalf("FrameCount after Prefill = %d", c.FrameCount())
	}
	if pool.OwnedBy(mem.CC) != 4 {
		t.Fatalf("pool CC frames = %d", pool.OwnedBy(mem.CC))
	}
	// A fixed cache never shrinks...
	if releaseOldest(t, c) {
		t.Fatal("fixed cache released a frame")
	}
	// ...but keeps absorbing entries by recycling its own frames.
	for i := int32(0); i < 40; i++ {
		if !insert(t, c, key(i), blob(int64(i), 2000), false) {
			t.Fatalf("insert %d failed in fixed cache", i)
		}
		if c.FrameCount() != 4 {
			t.Fatalf("fixed cache drifted to %d frames", c.FrameCount())
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefillExceedingPoolPanics(t *testing.T) {
	c, _, _ := newTestCache(t, 2, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("Prefill beyond the pool did not panic")
		}
	}()
	c.Prefill(5)
}

func TestCapRecyclingCleansDirty(t *testing.T) {
	params := DefaultParams()
	params.MaxFrames = 2
	c, _, _ := newTestCache(t, 8, params)
	c.SetHooks(noFlush, nil)
	// Fill the capped cache with dirty entries, then keep inserting: the
	// recycler must clean the oldest dirty frame and rotate.
	usable := 4096 - 24 - 36
	for i := int32(0); i < 10; i++ {
		if !insert(t, c, key(i), blob(int64(i), usable), true) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if c.FrameCount() > 2 {
		t.Fatalf("cache exceeded cap: %d", c.FrameCount())
	}
	if c.Stats().CleanWrites == 0 {
		t.Fatal("recycling never cleaned dirty frames")
	}
}

// A flush hook that fails must leave the batch dirty, make the insert that
// needed the room fail cleanly, and conserve frames.
func TestInsertFlushFailureLeavesStateConsistent(t *testing.T) {
	params := DefaultParams()
	params.MaxFrames = 2
	c, pool, _ := newTestCache(t, 8, params)
	flushErr := &failingFlush{}
	c.SetHooks(flushErr.flush, nil)
	usable := 4096 - 24 - 36
	insert(t, c, key(0), blob(1, usable), true)
	insert(t, c, key(1), blob(2, usable), true)
	dirtyBefore := c.DirtyBytes()
	flushErr.fail = true
	ok, err := c.Insert(key(2), blob(3, usable), true)
	if ok || err == nil {
		t.Fatalf("Insert with failing flush: ok=%v err=%v", ok, err)
	}
	if c.DirtyBytes() != dirtyBefore {
		t.Fatalf("dirty bytes changed across failed flush: %d -> %d", dirtyBefore, c.DirtyBytes())
	}
	if c.Has(key(2)) {
		t.Fatal("failed insert left an entry")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Once the device heals, the same batch flushes and the insert goes
	// through.
	flushErr.fail = false
	ok, err = c.Insert(key(2), blob(3, usable), true)
	if !ok || err != nil {
		t.Fatalf("Insert after heal: ok=%v err=%v", ok, err)
	}
}

type failingFlush struct{ fail bool }

func (f *failingFlush) flush([]swap.Item) error {
	if f.fail {
		return errTestFlush
	}
	return nil
}

var errTestFlush = &testFlushError{}

type testFlushError struct{}

func (*testFlushError) Error() string { return "test: flush device error" }

// Property: for any sequence of sized inserts, byte accounting and frame
// occupancy stay consistent and no insert both fails and mutates.
func TestInsertAccountingProperty(t *testing.T) {
	f := func(sizes []uint16, dirt []bool) bool {
		c, pool, _ := newTestCacheQuick()
		c.SetHooks(noFlush, nil)
		for i, sz := range sizes {
			n := int(sz)%3000 + 1
			dirty := i < len(dirt) && dirt[i]
			before := c.Len()
			ok, err := c.Insert(key(int32(i)), blob(int64(i), n), dirty)
			if err != nil {
				return false
			}
			if !ok && c.Len() != before {
				return false
			}
			if c.CheckConsistency() != nil {
				return false
			}
		}
		return pool.CheckConservation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func newTestCacheQuick() (*Cache, *mem.Pool, *sim.Clock) {
	var clock sim.Clock
	pool := mem.NewPool(12, 4096)
	return New(DefaultParams(), &clock, pool), pool, &clock
}
