package vm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"compcache/internal/mem"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/swap"
)

// fakePager stores page contents in a map, standing in for the machine's
// cache+swap hierarchy.
type fakePager struct {
	store    map[swap.PageKey][]byte
	pageOuts int
	pageIns  int
	dirtied  int

	failIn  map[int32]error // PageIn of these pages (any segment) fails
	failOut map[int32]error // PageOut of these pages (any segment) fails
}

func newFakePager() *fakePager {
	return &fakePager{store: make(map[swap.PageKey][]byte)}
}

func (f *fakePager) PageOut(p *Page, data []byte) error {
	if err := f.failOut[p.Key.Page]; err != nil {
		return err
	}
	f.pageOuts++
	f.store[p.Key] = append([]byte(nil), data...)
	p.State = Swapped
	p.Dirty = false
	p.SwapValid = true
	return nil
}

func (f *fakePager) PageIn(p *Page, data []byte) (Source, error) {
	if err := f.failIn[p.Key.Page]; err != nil {
		return 0, err
	}
	f.pageIns++
	stored, ok := f.store[p.Key]
	if !ok {
		panic("fakePager: PageIn of unknown page")
	}
	copy(data, stored)
	p.Dirty = false
	p.SwapValid = true
	return SrcSwap, nil
}

func (f *fakePager) Dirtied(p *Page) { f.dirtied++ }

// touch, readWord and writeWord assert the access succeeds; the fault paths
// that can fail are exercised separately in the machine tests.
func touch(t *testing.T, v *VM, s *Segment, n int32, write bool) *Page {
	t.Helper()
	p, err := v.Touch(s, n, write)
	if err != nil {
		t.Fatalf("Touch(%d): %v", n, err)
	}
	return p
}

func readWord(t *testing.T, v *VM, s *Segment, off int64) uint64 {
	t.Helper()
	val, err := v.ReadWord(s, off)
	if err != nil {
		t.Fatalf("ReadWord(%d): %v", off, err)
	}
	return val
}

func writeWord(t *testing.T, v *VM, s *Segment, off int64, val uint64) {
	t.Helper()
	if err := v.WriteWord(s, off, val); err != nil {
		t.Fatalf("WriteWord(%d): %v", off, err)
	}
}

func newTestVM(t testing.TB, frames int) (*VM, *fakePager, *mem.Pool, *sim.Clock) {
	t.Helper()
	var clock sim.Clock
	pool := mem.NewPool(frames, 4096)
	v := New(&clock, pool, sim.DefaultCostModel())
	fp := newFakePager()
	v.SetPager(fp)
	v.SetFrameSource(func(o mem.Owner) (mem.FrameID, error) {
		if id, ok := pool.Alloc(o); ok {
			return id, nil
		}
		if ok, err := v.ReleaseOldest(); err != nil || !ok {
			t.Fatalf("nothing to evict (ok=%v err=%v)", ok, err)
		}
		id, ok := pool.Alloc(o)
		if !ok {
			t.Fatal("alloc failed after eviction")
		}
		return id, nil
	})
	return v, fp, pool, &clock
}

// TestPageIsFortyEightBytes: the reference path walks Page descriptors, and
// the pager's Memo field is only free because it fills padding. A field that
// grows Page past 48 bytes moves every segment's page table onto more cache
// lines; the same guard as sim's TestClockReferencePathIsOneCacheLine.
func TestPageIsFortyEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(Page{}); n != 48 {
		t.Errorf("vm.Page is %d bytes, want 48", n)
	}
}

func TestColdFaultZeroFill(t *testing.T) {
	v, _, pool, _ := newTestVM(t, 4)
	s := v.NewSegment("heap", 8)
	p := touch(t, v, s, 3, false)
	if p.State != Resident {
		t.Fatalf("state = %v", p.State)
	}
	if !bytes.Equal(pool.Bytes(p.Frame), make([]byte, 4096)) {
		t.Fatal("cold page not zero-filled")
	}
	st := v.Stats()
	if st.Faults != 1 || st.ColdFaults != 1 || st.Refs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTouchResidentNoFault(t *testing.T) {
	v, _, _, _ := newTestVM(t, 4)
	s := v.NewSegment("heap", 8)
	v.Touch(s, 0, false)
	f0 := v.Stats().Faults
	for i := 0; i < 10; i++ {
		v.Touch(s, 0, false)
	}
	if v.Stats().Faults != f0 {
		t.Fatal("resident touches faulted")
	}
	if v.Stats().Refs != 11 {
		t.Fatalf("refs = %d", v.Stats().Refs)
	}
}

func TestWordRoundTrip(t *testing.T) {
	v, _, _, _ := newTestVM(t, 4)
	s := v.NewSegment("heap", 8)
	writeWord(t, v, s, 4096+16, 0xDEADBEEFCAFE0123)
	if got := readWord(t, v, s, 4096+16); got != 0xDEADBEEFCAFE0123 {
		t.Fatalf("ReadWord = %#x", got)
	}
}

func TestWordStraddlePanics(t *testing.T) {
	v, _, _, _ := newTestVM(t, 4)
	s := v.NewSegment("heap", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("straddling word access did not panic")
		}
	}()
	v.ReadWord(s, 4090)
}

// The first reference that fails kills the simulated process: the VM keeps
// its error, and every later access through any of the seven accessors
// returns it at once — no reference counted, no clock movement, no bytes
// moved, ReadWord reading 0 and ReadWordInto leaving its word alone. A
// reference made inside the trace hook that fails first keeps its error
// first, even when the reference that called the hook then fails too.
func TestFirstFailedReferenceSticks(t *testing.T) {
	v, fp, pool, clock := newTestVM(t, 4)
	s := v.NewSegment("heap", 4)
	for n := int32(0); n < 4; n++ {
		writeWord(t, v, s, int64(n)*4096, uint64(n)+1)
		if err := v.Evict(s.Page(n)); err != nil {
			t.Fatal(err)
		}
	}
	inHook, inOuter := errors.New("page 0 lost"), errors.New("page 1 lost")
	fp.failIn = map[int32]error{0: inHook, 1: inOuter}
	readWord(t, v, s, 2*4096) // page 2 resident and clean again: later hits would succeed
	v.SetTraceHook(func(_, page int32, _ bool) {
		if page == 1 {
			if _, err := v.Touch(s, 0, false); err != inHook {
				t.Errorf("Touch of page 0 inside the hook = %v, want %v", err, inHook)
			}
		}
	})
	if _, err := v.Touch(s, 1, false); err != inOuter {
		t.Fatalf("Touch of page 1 = %v, want %v", err, inOuter)
	}
	if v.Err() != inHook {
		t.Fatalf("Err() = %v, want the first failure %v", v.Err(), inHook)
	}
	for _, n := range []int32{0, 1} {
		if st := s.Page(n).State; st != Swapped {
			t.Fatalf("failed page %d is %v, want it left swapped", n, st)
		}
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	refs, now := v.Stats().Refs, clock.Now()
	buf := []byte{1, 2, 3}
	for name, access := range map[string]func() error{
		"Touch": func() error { _, err := v.Touch(s, 2, true); return err },
		"Pin":   func() error { _, err := v.Pin(s, 2); return err },
		"Read":  func() error { return v.Read(s, 2*4096, buf) },
		"Write": func() error { return v.Write(s, 4095, buf) }, // spans pages 0 and 1
		"ReadWord": func() error {
			w, err := v.ReadWord(s, 2*4096)
			if w != 0 {
				t.Errorf("ReadWord of a dead VM read %d", w)
			}
			return err
		},
		"ReadWordInto": func() error {
			w := uint64(7)
			err := v.ReadWordInto(s, 2*4096, &w)
			if w != 7 {
				t.Errorf("ReadWordInto of a dead VM stored %d", w)
			}
			return err
		},
		"WriteWord": func() error { return v.WriteWord(s, 2*4096, 42) },
	} {
		if err := access(); err != inHook {
			t.Errorf("%s on a dead VM = %v, want %v", name, err, inHook)
		}
		if got := v.Stats().Refs; got != refs {
			t.Errorf("%s on a dead VM counted %d references", name, got-refs)
		}
		if got := clock.Now(); got != now {
			t.Errorf("%s on a dead VM moved the clock by %v", name, got-now)
		}
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Errorf("Read on a dead VM filled the buffer: %v", buf)
	}
	if p := s.Page(2); p.Pinned || p.Dirty {
		t.Errorf("page 2 = %+v after accesses to a dead VM", *p)
	}
}

// TestFailedPageOutKillsTheProcess: a page whose PageOut fails has left the
// LRU list and its frame, and the pager kept no copy, so the VM dies with
// the pager's error: the next Touch of the page returns it instead of
// dereferencing the frame the page no longer has.
func TestFailedPageOutKillsTheProcess(t *testing.T) {
	v, fp, pool, _ := newTestVM(t, 4)
	s := v.NewSegment("heap", 2)
	writeWord(t, v, s, 0, 1)
	lost := errors.New("page 0 lost")
	fp.failOut = map[int32]error{0: lost}
	if err := v.Evict(s.Page(0)); err != lost {
		t.Fatalf("Evict = %v, want %v", err, lost)
	}
	if _, err := v.Touch(s, 0, false); err != lost {
		t.Fatalf("Touch of the page after its failed PageOut = %v, want %v", err, lost)
	}
	if v.Err() != lost {
		t.Fatalf("Err() = %v, want %v", v.Err(), lost)
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// access takes a hit on the LRU tail without the page table, matching the
// tail by segment and page: the same page number in another segment is
// another page, and faults.
func TestTailHitMatchesSegment(t *testing.T) {
	v, _, _, _ := newTestVM(t, 4)
	a, b := v.NewSegment("a", 2), v.NewSegment("b", 2)
	writeWord(t, v, a, 8, 1) // a's page 0 is the tail
	if got := readWord(t, v, b, 8); got != 0 {
		t.Fatalf("b's page 0 read %d, a's word", got)
	}
	if p := b.Page(0); p.State != Resident || v.lruTail != p {
		t.Fatalf("b's page 0 = %v, tail %v; want it faulted in as the tail", p.State, v.lruTail.Key)
	}
	if got := readWord(t, v, a, 8); got != 1 || v.Stats().Faults != 2 {
		t.Fatalf("a's page 0 read %d after %d faults, want 1 after 2", got, v.Stats().Faults)
	}
}

func TestBulkReadWriteAcrossPages(t *testing.T) {
	v, _, _, _ := newTestVM(t, 8)
	s := v.NewSegment("heap", 8)
	data := make([]byte, 10000)
	rand.New(rand.NewSource(5)).Read(data)
	v.Write(s, 1000, data)
	got := make([]byte, len(data))
	v.Read(s, 1000, got)
	if !bytes.Equal(got, data) {
		t.Fatal("bulk round trip mismatch")
	}
}

func TestEvictionAndRefaultPreservesContents(t *testing.T) {
	v, fp, _, _ := newTestVM(t, 2)
	s := v.NewSegment("heap", 6)
	// Write distinct contents to 6 pages with only 2 frames: constant
	// eviction traffic.
	for i := int32(0); i < 6; i++ {
		v.WriteWord(s, int64(i)*4096, uint64(i)+100)
	}
	for i := int32(0); i < 6; i++ {
		if got := readWord(t, v, s, int64(i)*4096); got != uint64(i)+100 {
			t.Fatalf("page %d = %d after refault", i, got)
		}
	}
	if fp.pageOuts == 0 || fp.pageIns == 0 {
		t.Fatalf("expected paging traffic, got %d outs %d ins", fp.pageOuts, fp.pageIns)
	}
	if err := v.CheckLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	v, fp, _, _ := newTestVM(t, 3)
	s := v.NewSegment("heap", 4)
	v.WriteWord(s, 0*4096, 1)
	v.WriteWord(s, 1*4096, 2)
	v.WriteWord(s, 2*4096, 3)
	v.ReadWord(s, 0) // page 0 is now MRU; page 1 is LRU
	v.WriteWord(s, 3*4096, 4)
	// Page 1 must be the page that went out.
	if _, ok := fp.store[swap.PageKey{Seg: s.ID, Page: 1}]; !ok {
		t.Fatal("LRU page 1 was not evicted")
	}
	if s.Page(0).State != Resident {
		t.Fatal("recently used page 0 was evicted")
	}
}

func TestCleanNeverWrittenEvictsToUntouched(t *testing.T) {
	v, fp, _, _ := newTestVM(t, 2)
	s := v.NewSegment("heap", 4)
	v.Touch(s, 0, false) // read-only cold fault
	v.Touch(s, 1, false)
	v.Touch(s, 2, false) // evicts page 0
	if fp.pageOuts != 0 {
		t.Fatalf("read-only zero pages caused %d pageouts", fp.pageOuts)
	}
	if s.Page(0).State != Untouched {
		t.Fatalf("page 0 state = %v, want Untouched", s.Page(0).State)
	}
	// Refault reads zeros again.
	v.Touch(s, 0, false)
	if v.Stats().ColdFaults != 4 {
		t.Fatalf("cold faults = %d, want 4", v.Stats().ColdFaults)
	}
}

func TestDirtiedHookOnFirstWrite(t *testing.T) {
	v, fp, _, _ := newTestVM(t, 2)
	s := v.NewSegment("heap", 2)
	v.Touch(s, 0, false)
	if fp.dirtied != 0 {
		t.Fatal("read triggered Dirtied")
	}
	v.Touch(s, 0, true)
	if fp.dirtied != 1 {
		t.Fatalf("dirtied = %d, want 1", fp.dirtied)
	}
	v.Touch(s, 0, true) // already dirty: no second call
	if fp.dirtied != 1 {
		t.Fatalf("dirtied = %d after second write, want 1", fp.dirtied)
	}
}

func TestCleanRefaultedPageNotRewritten(t *testing.T) {
	v, fp, _, _ := newTestVM(t, 2)
	s := v.NewSegment("heap", 4)
	v.WriteWord(s, 0, 42)      // page 0 dirty
	v.WriteWord(s, 4096, 43)   // page 1 dirty
	v.WriteWord(s, 2*4096, 44) // evicts page 0 (dirty writeback)
	v.ReadWord(s, 0)           // refault page 0, clean
	outs := fp.pageOuts
	v.ReadWord(s, 3*4096) // evicts some page
	v.ReadWord(s, 2*4096) // force more eviction
	_ = outs
	// Page 0, refaulted clean with SwapValid, may be paged out again but the
	// fake pager treats every pageout as a store; what matters here is the
	// VM's writeback accounting.
	if got := v.Stats().WriteBacks; got != 3 {
		t.Fatalf("writebacks = %d, want 3 (each dirty page once)", got)
	}
}

func TestStatsWritebacksOnlyForDirty(t *testing.T) {
	v, _, _, _ := newTestVM(t, 2)
	s := v.NewSegment("heap", 4)
	v.WriteWord(s, 0, 1)
	v.ReadWord(s, 4096)
	v.ReadWord(s, 2*4096) // evicts page 0 (dirty) — 1 writeback
	v.ReadWord(s, 3*4096) // evicts page 1 (clean, never written) — no writeback
	if got := v.Stats().WriteBacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestSegmentBounds(t *testing.T) {
	v, _, _, _ := newTestVM(t, 2)
	s := v.NewSegment("heap", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range page did not panic")
		}
	}()
	v.Touch(s, 2, false)
}

func TestNewSegmentValidation(t *testing.T) {
	v, _, _, _ := newTestVM(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-page segment did not panic")
		}
	}()
	v.NewSegment("empty", 0)
}

// Byte addressing is shift and mask; a direct constructor that bypasses
// machine.Config's validation must not get a VM that silently mis-addresses.
func TestNewRejectsNonPowerOfTwoPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1536-byte pages did not panic")
		}
	}()
	var clock sim.Clock
	New(&clock, mem.NewPool(4, 1536), sim.DefaultCostModel())
}

func TestSegmentsDistinctKeys(t *testing.T) {
	v, _, _, _ := newTestVM(t, 4)
	a := v.NewSegment("a", 2)
	b := v.NewSegment("b", 2)
	if a.ID == b.ID {
		t.Fatal("segment IDs collide")
	}
	if a.Page(0).Key == b.Page(0).Key {
		t.Fatal("page keys collide across segments")
	}
	if a.Size(4096) != 8192 {
		t.Fatalf("Size = %d", a.Size(4096))
	}
}

func TestOldestAge(t *testing.T) {
	v, _, _, clock := newTestVM(t, 4)
	s := v.NewSegment("heap", 4)
	if _, ok := v.OldestAge(); ok {
		t.Fatal("OldestAge with nothing resident")
	}
	v.Touch(s, 0, false)
	t0 := clock.Now()
	v.Touch(s, 1, false)
	age, ok := v.OldestAge()
	if !ok || age > t0 {
		t.Fatalf("OldestAge = %v ok=%v, want <= %v", age, ok, t0)
	}
}

func TestReleaseOldestEmpty(t *testing.T) {
	v, _, _, _ := newTestVM(t, 2)
	if ok, err := v.ReleaseOldest(); ok || err != nil {
		t.Fatalf("ReleaseOldest with nothing resident: ok=%v err=%v", ok, err)
	}
}

func TestClockAdvancesPerRef(t *testing.T) {
	v, _, _, clock := newTestVM(t, 4)
	s := v.NewSegment("heap", 1)
	v.Touch(s, 0, false)
	t0 := clock.Now()
	v.Touch(s, 0, false)
	if got := clock.Elapsed(t0); got != sim.DefaultCostModel().MemRef {
		t.Fatalf("resident ref cost %v, want %v", got, sim.DefaultCostModel().MemRef)
	}
}

// Randomized integrity test: arbitrary word writes and reads across a
// segment larger than memory must always read back the last value written.
func TestRandomAccessIntegrity(t *testing.T) {
	v, _, pool, _ := newTestVM(t, 5)
	const npages = 20
	s := v.NewSegment("heap", npages)
	rng := rand.New(rand.NewSource(11))
	shadow := make(map[int64]uint64)
	for i := 0; i < 5000; i++ {
		off := int64(rng.Intn(npages))*4096 + int64(rng.Intn(512))*8
		if rng.Intn(2) == 0 {
			val := rng.Uint64()
			v.WriteWord(s, off, val)
			shadow[off] = val
		} else {
			want := shadow[off]
			if got := readWord(t, v, s, off); got != want {
				t.Fatalf("step %d: ReadWord(%d) = %d, want %d", i, off, got, want)
			}
		}
	}
	if err := v.CheckLRU(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if v.ResidentPages() > 5 {
		t.Fatalf("resident %d exceeds pool", v.ResidentPages())
	}
}

// Property: any access pattern leaves the LRU list consistent and the frame
// pool conserved.
func TestVMAccessProperty(t *testing.T) {
	f := func(script []uint16) bool {
		v, _, pool, _ := newQuickVM()
		s := v.NewSegment("q", 24)
		for _, op := range script {
			page := int32(op % 24)
			write := op&0x8000 != 0
			v.Touch(s, page, write)
		}
		return v.CheckLRU() == nil && pool.CheckConservation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func newQuickVM() (*VM, *fakePager, *mem.Pool, *sim.Clock) {
	var clock sim.Clock
	pool := mem.NewPool(6, 4096)
	v := New(&clock, pool, sim.DefaultCostModel())
	fp := newFakePager()
	v.SetPager(fp)
	v.SetFrameSource(func(o mem.Owner) (mem.FrameID, error) {
		if id, ok := pool.Alloc(o); ok {
			return id, nil
		}
		if ok, err := v.ReleaseOldest(); err != nil || !ok {
			panic("quick vm: nothing to evict")
		}
		id, _ := pool.Alloc(o)
		return id, nil
	})
	return v, fp, pool, &clock
}

// TestValidPrefix: a page's valid prefix is the whole page after a fault, and
// a read leaves it alone. A restored VM, which was never told, reads 0 on
// every page.
func TestValidPrefix(t *testing.T) {
	v, _, pool, _ := newTestVM(t, 4)
	s := v.NewSegment("heap", 8)
	const whole = 4096 / 8
	p := touch(t, v, s, 0, false)
	want := func(q *Page, what string, n uint16) {
		t.Helper()
		if q.Valid != n {
			t.Errorf("%s: page %d has %d valid words, want %d", what, q.Key.Page, q.Valid, n)
		}
	}
	want(p, "after a cold fault", whole)
	readWord(t, v, s, 8)
	if err := v.Read(s, 100, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	want(p, "after reads", whole)
	want(touch(t, v, s, 2, false), "after a cold fault", whole)

	if err := v.Evict(p); err != nil {
		t.Fatal(err)
	}
	want(touch(t, v, s, 0, false), "after a fault from the pager", whole)

	w := snap.NewWriter()
	v.Snap(snap.Encoder(w))
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	var clock sim.Clock
	restored := New(&clock, pool, sim.DefaultCostModel())
	c := snap.Decoder(r)
	restored.Snap(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < s.NPages; i++ {
		if q := restored.Segment(s.ID).Page(i); q.State == Resident {
			want(q, "after a restore", 0)
		}
	}
	if restored.ResidentPages() != v.ResidentPages() || v.ResidentPages() == 0 {
		t.Errorf("restored %d resident pages of %d", restored.ResidentPages(), v.ResidentPages())
	}
}
