package machine

import (
	"bytes"
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
// remembered page changes, leaves or comes back — plain touches, byte reads
// and writes checked against a model, pins, EvictAll, the cleaner, corrupt
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
	recoveries              uint64
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
	case 0, 1, 2, 3:
		s.Touch(page, false)
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
func (r *memoRig) clean() {
	for {
		n, err := r.m.CC.Clean()
		if err != nil {
			r.t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	r.m.Drain()
}

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
	if m.memo.slab != nil || m.plain.ring != nil {
		r.t.Fatal("a restored machine remembers forms it never saw")
	}
	r.m = m
	for i, name := range []string{"a", "b"} {
		var ok bool
		if r.seg[i], ok = m.SpaceFor(name); !ok {
			r.t.Fatalf("restored machine lost segment %q", name)
		}
	}
	r.restores++
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
	t.Logf("%d ops, %d machines, %d restores, %d recoveries; %d compressions, codec ran %d times; %d decompressions, codec decoded %d times",
		r.ops, r.lives, r.restores, r.recoveries, r.compressions, r.ran, r.decompressions, r.decoded)
}

// FuzzCompressMemo lets the fuzzer write the op stream. The corpus in
// testdata holds streams that reach a recovery, a fatal fragment and a
// restore within a few hundred ops.
func FuzzCompressMemo(f *testing.F) {
	f.Add(memoStream(1, 64))
	f.Add(memoStream(2, 512))
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
	evict(t, m, p) // into the cache, with a record that carries no plaintext
	s.Touch(0, false)
	evict(t, m, p) // back within the ring once: quick, still no plaintext
	if p.Memo&memoIndex == 0 || m.plain.ring[p.Memo&memoIndex-1].slot >= 0 {
		t.Fatal("a page that came straight back once left with its plaintext remembered")
	}
	s.Touch(0, false)
	s.Write(0, newer)
	evict(t, m, p) // back within the ring twice running: hot, so the plaintext is remembered
	if p.Memo&memoIndex == 0 || m.plain.ring[p.Memo&memoIndex-1].slot < 0 {
		t.Fatal("a page that came straight back twice left without its plaintext remembered")
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

// evict pushes one resident page out of memory.
func evict(t *testing.T, m *Machine, p *vm.Page) {
	t.Helper()
	if err := m.VM.Evict(p); err != nil {
		t.Fatal(err)
	}
}
