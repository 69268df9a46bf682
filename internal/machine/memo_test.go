package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"compcache/internal/core"
	"compcache/internal/fault"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// The memos' oracles are VerifyCompressMemo and VerifyPlainMemo: whatever the
// machine has been through, every remembered payload is what the codec makes
// of its page's frame now, and every remembered plaintext is what the codec
// makes of the cache entry it would stand in for. memoRig drives a small
// compression-cache machine through an op stream that takes every way a
// remembered page changes, leaves or comes back — plain touches, byte and
// word reads and writes checked against a model, pins, EvictAll, the
// cleaner, corrupt
// fragments out of the cache and the store (recovered, or fatal: the rig
// boots the next machine), snapshot→restore in mid-stream — and asks both
// oracles every few ops. The byte reads are the plaintext memo's own oracle
// as well: a page copied in from a wrong plaintext reads back wrong.

const (
	memoFrames  = 32
	memoPages   = 48 // per segment: two of them overcommit memory three times
	memoOpBytes = 4
	memoMaxOps  = 4096 // per fuzz input
	memoMaxPins = 4
)

type memoRig struct {
	t     testing.TB
	every int // ops between oracle calls

	cfg    Config
	m      *Machine
	seg    [2]*Space
	model  [2][]byte  // what each segment must read back as
	pinned [][2]int32 // (segment, page), oldest first
	lost   error      // an EvictAll failure: fatal here, though only a reference's failure kills the machine

	// Over every machine the stream went through.
	ops, lives, restores    int
	partial                 int // word reads that left their page partial
	recoveries              uint64
	watched                 memoCounts
	compressions, ran       uint64 // charged to the simulated machine; run by the host's codec
	decompressions, decoded uint64 // likewise
	codec, segCodec         *countedCodec
}

func newMemoRig(t testing.TB, every int) *memoRig {
	r := &memoRig{t: t, every: every, codec: counted(""), segCodec: counted("fpc")}
	r.boot()
	return r
}

// boot builds the next machine: the default codec under segment "a", its own
// under "b", and an injector seeded by how many machines came before.
func (r *memoRig) boot() {
	r.lives++
	r.cfg = Default(memoFrames * 4096).WithCC().WithFaults(fault.Config{
		Seed: int64(r.lives), CacheCorruptionRate: 0.02, SwapCorruptionRate: 0.002,
	})
	r.cfg.CC.Codec = r.codec.Name()
	m, err := New(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.m = m
	m.VM.SetPager(memoWatch{m, &r.watched})
	r.seg[0] = m.NewSegment("a", memoPages*4096)
	if r.seg[1], err = m.NewSegmentCodec("b", memoPages*4096, r.segCodec.Name()); err != nil {
		r.t.Fatal(err)
	}
	r.model = [2][]byte{make([]byte, memoPages*4096), make([]byte, memoPages*4096)}
	r.pinned = r.pinned[:0]
	r.lost = nil
}

// err is what ended the current machine, if anything has.
func (r *memoRig) err() error {
	if err := r.m.Err(); err != nil {
		return err
	}
	return r.lost
}

// retire adds the current machine's counters to the rig's.
func (r *memoRig) retire() {
	r.recoveries += r.m.Faults().Recoveries
	r.compressions += r.m.Stats().Comp.Compressions
	r.decompressions += r.m.Stats().Comp.Decompressions
}

// calls is how often either codec has compressed so far, decodes how often
// either has decompressed.
func (r *memoRig) calls() uint64   { return r.codec.Calls() + r.segCodec.Calls() }
func (r *memoRig) decodes() uint64 { return r.codec.Decodes() + r.segCodec.Decodes() }

// verify asks the oracles, whose own use of the codec is not the machine's.
func (r *memoRig) verify() {
	r.t.Helper()
	ran, decoded := r.calls(), r.decodes()
	if err := r.m.VerifyCompressMemo(); err != nil {
		r.t.Fatalf("op %d: %v", r.ops, err)
	}
	if err := r.m.VerifyPlainMemo(); err != nil {
		r.t.Fatalf("op %d: %v", r.ops, err)
	}
	r.ran -= r.calls() - ran
	r.decoded -= r.decodes() - decoded
}

// run interprets ops, four bytes each: what to do, where, and two arguments.
func (r *memoRig) run(ops []byte) {
	before, decoded := r.calls(), r.decodes()
	for ; len(ops) >= memoOpBytes; ops = ops[memoOpBytes:] {
		r.step(ops[0], ops[1], ops[2], ops[3])
		r.ops++
		if err := r.err(); err != nil {
			// The one way to die here is a corrupt fragment that was the only
			// copy. The dead machine's memo must still be right.
			var lost *fault.UnrecoverableError
			if !errors.As(err, &lost) {
				r.t.Fatalf("op %d: %v", r.ops, err)
			}
			r.verify()
			r.retire()
			r.boot()
		} else if r.ops%r.every == 0 {
			r.verify()
			if err := r.m.CheckInvariants(); err != nil {
				r.t.Fatalf("op %d: %v", r.ops, err)
			}
		}
	}
	r.verify()
	r.retire()
	r.ran += r.calls() - before
	r.decoded += r.decodes() - decoded
}

func (r *memoRig) step(op, where, a, b byte) {
	si := int(where & 1)
	s, page := r.seg[si], int32(where>>1)%memoPages
	off := int64(page)*4096 + int64(a)*16
	switch op % 16 {
	case 0, 1, 2:
		s.Touch(page, false)
	case 3:
		// One word, the way the fleet reads a page: a page restored for it
		// is decoded only so far, and its frame keeps the rest as a tail.
		got := s.ReadWord(off)
		if want := binary.LittleEndian.Uint64(r.model[si][off:]); r.m.Err() == nil && got != want {
			r.t.Fatalf("op %d: segment %d read back word %#x at %d, want %#x", r.ops, si, got, off, want)
		}
		if s.seg.Page(page).State == vm.Partial {
			r.partial++
		}
	case 4, 5:
		s.Touch(page, true) // dirties the page and leaves its bytes alone
	case 6, 7, 8:
		n := min(1+int64(b)*32, s.Size()-off) // up to three pages
		got := make([]byte, n)
		s.Read(off, got)
		if want := r.model[si][off : off+n]; r.m.Err() == nil && !bytes.Equal(got, want) {
			r.t.Fatalf("op %d: segment %d read back wrong bytes at %d+%d", r.ops, si, off, n)
		}
	case 9, 10, 11:
		// A run of one byte, or noise: a long enough stretch of noise makes
		// the page miss the keep threshold and travel raw.
		n := min(1+int64(b)*16, s.Size()-off)
		data := r.model[si][off : off+n]
		if a&1 == 0 {
			for i := range data {
				data[i] = a
			}
		} else {
			rand.New(rand.NewSource(int64(a)<<8 | int64(b))).Read(data)
		}
		s.Write(off, data)
	case 12:
		if len(r.pinned) == memoMaxPins {
			r.unpinOldest()
		}
		s.Pin(page)
		r.pinned = append(r.pinned, [2]int32{int32(si), page})
	case 13:
		r.unpinOldest()
	case 14:
		if a%4 != 0 {
			r.clean()
		} else if err := r.m.EvictAll(); err != nil {
			r.lost = err
		}
	case 15:
		if a%4 == 0 {
			r.restore()
		} else {
			s.Touch(page, false)
		}
	}
}

func (r *memoRig) unpinOldest() {
	if len(r.pinned) > 0 {
		r.seg[r.pinned[0][0]].Unpin(r.pinned[0][1])
		r.pinned = r.pinned[1:]
	}
}

// clean flushes every dirty cache entry, so that a corrupt fragment read out
// of the cache afterwards has a copy below to recover from.
func (r *memoRig) clean() { cleanAll(r.t, r.m) }

// restore replaces the machine with its own snapshot, restored: the same
// machine with nothing remembered.
func (r *memoRig) restore() {
	blob, err := r.m.Snapshot()
	if err != nil {
		r.t.Fatal(err)
	}
	m, err := Restore(r.cfg, blob)
	if err != nil {
		r.t.Fatalf("op %d: %v", r.ops, err)
	}
	if m.forms.memo.slab != nil || m.forms.plain.ring != nil {
		r.t.Fatal("a restored machine remembers forms it never saw")
	}
	r.m = m
	m.VM.SetPager(memoWatch{m, &r.watched})
	for i, name := range []string{"a", "b"} {
		var ok bool
		if r.seg[i], ok = m.SpaceFor(name); !ok {
			r.t.Fatalf("restored machine lost segment %q", name)
		}
	}
	r.restores++
}

// memoWatch is a machine's pager, counting what the plaintext memo does
// with each departure.
type memoWatch struct {
	*Machine
	n *memoCounts
}

// memoCounts is what a memoWatch counts.
type memoCounts struct {
	copies   int // departures whose record holds the page's plaintext
	slotless int // stays begun by a cache hit that departed with every slot taken
	expired  int // records that expired while they held a slot
}

func (w memoWatch) PageOut(p *vm.Page, data []byte) error {
	pm := &w.forms.plain
	expiring := pm.ring != nil && pm.ring[pm.next].page != nil && pm.ring[pm.next].slot >= 0
	hit := p.Memo&memoHit != 0
	err := w.Machine.PageOut(p, data)
	if p.State == vm.Resident || p.Memo == 0 {
		return err // no record written
	}
	if expiring {
		w.n.expired++
	}
	switch {
	case pm.ring[p.Memo-1].slot >= 0:
		w.n.copies++
	case hit:
		w.n.slotless++
	}
	return err
}

// memoStream is a seeded op stream of n ops.
func memoStream(seed int64, n int) []byte {
	ops := make([]byte, n*memoOpBytes)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

func TestCompressMemoAgainstCodec(t *testing.T) {
	r := newMemoRig(t, 8)
	r.run(memoStream(22, 20000))
	// The stream has to have gone where the memo can go wrong.
	if r.ran >= r.compressions {
		t.Errorf("codec ran %d times for %d compressions: the memo never served one", r.ran, r.compressions)
	}
	if r.decoded >= r.decompressions {
		t.Errorf("codec decoded %d times for %d decompressions: the plaintext memo never served one", r.decoded, r.decompressions)
	}
	if r.recoveries == 0 {
		t.Error("no corrupt cache fragment was recovered from below")
	}
	if r.lives < 2 {
		t.Error("no corrupt fragment was fatal")
	}
	if r.restores == 0 {
		t.Error("no snapshot→restore in mid-stream")
	}
	if r.partial == 0 {
		t.Error("no word read left its page restored in part")
	}
	if r.watched.slotless == 0 {
		t.Error("no page whose stay began with a cache hit departed with every plaintext slot taken")
	}
	t.Logf("%d ops, %d machines, %d restores, %d recoveries, %d partial pages; %d compressions, codec ran %d times; %d decompressions, codec decoded %d times; %+v",
		r.ops, r.lives, r.restores, r.recoveries, r.partial, r.compressions, r.ran, r.decompressions, r.decoded, r.watched)
}

// memoPasses appends to ops passes of op over the first n pages of both
// segments in turn (page 0 of a, page 0 of b, page 1 of a, ...). A random
// stream restores or empties its machine every few dozen ops, long before
// the plaintext ring wraps; plain passes run the memo short.
func memoPasses(ops []byte, n, passes int, op byte) []byte {
	for range passes {
		for where := range 2 * n {
			ops = append(ops, op, byte(where), 0, 0)
		}
	}
	return ops
}

var (
	// memoSlotless writes every page without changing its bytes, evicts
	// them all into the cache and cleans it, so that a corrupt fragment is
	// recovered from below instead of killing the machine. Then it reads
	// every page: each comes back from the cache, and two memories of pages
	// leave with their stays begun by a hit, more than there are slots.
	memoSlotless = memoPasses(append(memoPasses(nil, memoPages, 1, 4), 14, 0, 0, 0, 14, 0, 1, 0), memoPages, 1, 0)
	// memoExpiry goes on to cycle through the first two memories of pages
	// (memoFrames of each segment): the last third, slots and all, is not
	// touched again while more than a ring of records is written.
	memoExpiry = memoPasses(memoSlotless, memoFrames, 5, 0)
)

// TestPlainMemoRunsShortOfSlots: the crafted streams reach the two moments
// a plaintext slot is not to be had — a hit departure with every slot taken,
// and a record that expires holding one — and both oracles hold through them.
func TestPlainMemoRunsShortOfSlots(t *testing.T) {
	r := newMemoRig(t, 4)
	r.run(memoSlotless)
	if r.watched.slotless == 0 {
		t.Error("memoSlotless: no hit departure found every slot taken")
	}
	r = newMemoRig(t, 4)
	r.run(memoExpiry)
	if r.watched.expired == 0 {
		t.Error("memoExpiry: no record expired holding a slot")
	}
	t.Logf("memoExpiry: %+v", r.watched)
}

// FuzzCompressMemo lets the fuzzer write the op stream. The corpus in
// testdata holds streams that reach a recovery, a fatal fragment and a
// restore within a few hundred ops; memoSlotless and memoExpiry run the
// plaintext memo out of slots.
func FuzzCompressMemo(f *testing.F) {
	f.Add(memoStream(1, 64))
	f.Add(memoStream(2, 512))
	f.Add(memoSlotless)
	f.Add(memoExpiry)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > memoMaxOps*memoOpBytes {
			ops = ops[:memoMaxOps*memoOpBytes]
		}
		newMemoRig(t, 4).run(ops)
	})
}

// TestPlainMemoDecodesAStaleTier: the remembered plaintext stands in for one
// travel form only, the one the page left with. A tier that serves some other
// version of the page — here an older one, slipped in behind the machine's
// back — passes the checksum, so only the record's own sum tells the two
// apart: the page must come back as the tier's bytes, decoded, just as on a
// machine that remembers nothing.
func TestPlainMemoDecodesAStaleTier(t *testing.T) {
	codec := counted("")
	cfg := ccConfig()
	cfg.CC.Codec = codec.Name()
	fake := newFakeTier()
	m := newMachine(t, cfg, WithRemote(fake))
	s := m.NewSegment("heap", 4*4096)
	p := s.seg.Page(0)
	older := bytes.Repeat([]byte("older "), 4096/6+1)[:4096]
	newer := bytes.Repeat([]byte("newer "), 4096/6+1)[:4096]

	s.Write(0, older)
	evict(t, m, p) // into the cache from a cold stay: a record that carries no plaintext
	if plainSlotOf(t, m, p) >= 0 {
		t.Fatal("a page whose stay began cold left with its plaintext remembered")
	}
	s.Touch(0, false) // a cache hit
	s.Write(0, newer)
	evict(t, m, p) // a stay that began with a cache hit: the plaintext is remembered
	if plainSlotOf(t, m, p) < 0 {
		t.Fatal("a page whose stay began with a cache hit left without its plaintext remembered")
	}

	// The cache loses the entry and the tier holds the older version, in a
	// travel form whose sum is its own.
	m.CC.Drop(p.Key)
	stale := m.codecFor(p.Key.Seg).Compress(nil, older)
	if err := fake.Put(swap.Item{Key: p.Key, Data: stale, Compressed: true, Sum: core.Checksum(stale)}); err != nil {
		t.Fatal(err)
	}
	p.State = vm.Swapped

	decoded := codec.Decodes()
	got := make([]byte, 4096)
	s.Read(0, got)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, older) {
		t.Error("the page came back as the remembered plaintext, not as the version the tier served")
	}
	if codec.Decodes() == decoded {
		t.Error("the tier's payload was never decoded")
	}
	if err := m.VerifyPlainMemo(); err != nil {
		t.Error(err)
	}
}

// TestPlainMemoAdmitsCacheHitsOnly: a departing page's plaintext is copied
// only when its stay began with a compression-cache hit. A stay that began
// cold, in a tier, or with a cache fragment that failed its check and was
// recovered from below leaves a record without plaintext. Over a shuffled
// run through three memories of pages, each copy stands for a stay that began
// with a hit, so there are no more copies than hits.
func TestPlainMemoAdmitsCacheHitsOnly(t *testing.T) {
	m := newMachine(t, ccConfig())
	s := m.NewSegment("heap", 4*4096)
	p := s.seg.Page(0)
	s.Write(0, bytes.Repeat([]byte("plain "), 4096/6+1)[:4096])
	departs := func(why string, want bool) {
		t.Helper()
		evict(t, m, p)
		if got := plainSlotOf(t, m, p) >= 0; got != want {
			t.Fatalf("a stay that began %s: plaintext remembered %v, want %v", why, got, want)
		}
		if err := m.VerifyPlainMemo(); err != nil {
			t.Fatal(err)
		}
	}
	departs("cold", false)

	// The entry is written back and reclaimed: the next fault reads the store.
	cleanAll(t, m)
	m.CC.Drop(p.Key)
	m.entryDropped(p.Key)
	s.Touch(0, false)
	if m.Stats().VM.SwapIns != 1 {
		t.Fatal("the page did not come back from the store")
	}
	departs("in a tier", false)

	s.Touch(0, false)
	if m.Stats().VM.CacheHits != 1 {
		t.Fatal("the page did not come back from the cache")
	}
	departs("with a cache hit", true)

	// The entry is clean, so a fragment that fails its check is recovered
	// from the store.
	cleanAll(t, m)
	cdata, _, _ := m.CC.Peek(p.Key)
	cdata[0] ^= 0xff
	s.Touch(0, false)
	if m.Faults().Recoveries != 1 {
		t.Fatal("the corrupt fragment was not recovered from below")
	}
	departs("with a corrupt fragment", false)

	m = newMachine(t, ccConfig())
	var n memoCounts
	m.VM.SetPager(memoWatch{m, &n})
	pages := 3 * m.Pool.Total()
	s = m.NewSegment("heap", int64(pages)*4096)
	fillHalfRandom(s)
	rng := rand.New(rand.NewSource(1))
	for pass := 0; pass < 4; pass++ {
		for _, i := range rng.Perm(pages) {
			s.Touch(int32(i), rng.Intn(4) == 0)
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyPlainMemo(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if n.copies == 0 || st.VM.SwapIns == 0 {
		t.Fatalf("%d copies, %d swap-ins: the run never took the paths it is about", n.copies, st.VM.SwapIns)
	}
	if uint64(n.copies) > st.VM.CacheHits {
		t.Errorf("%d plaintext copies for %d cache hits", n.copies, st.VM.CacheHits)
	}
	t.Logf("%d cache hits, %d swap-ins; %+v", st.VM.CacheHits, st.VM.SwapIns, n)
}

// cleanAll writes every dirty cache entry back to the store.
func cleanAll(t testing.TB, m *Machine) {
	t.Helper()
	for {
		n, err := m.CC.Clean()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	m.Drain()
}

// plainSlotOf is the plaintext slot of a departed page's record, -1 for none.
func plainSlotOf(t *testing.T, m *Machine, p *vm.Page) int32 {
	t.Helper()
	if p.State == vm.Resident || p.Memo == 0 {
		t.Fatalf("page %v (%v) departed without a plaintext record", p.Key, p.State)
	}
	return m.forms.plain.ring[p.Memo-1].slot
}

// evict pushes one resident page out of memory.
func evict(t *testing.T, m *Machine, p *vm.Page) {
	t.Helper()
	if err := m.VM.Evict(p); err != nil {
		t.Fatal(err)
	}
}
