package machine

import (
	"bytes"
	"fmt"

	"compcache/internal/core"
	"compcache/internal/vm"
)

// The machine remembers forms of pages in both directions, so that bytes the
// host has just produced are not produced again (DESIGN.md "Remembered forms,
// both directions"). Both memos are host-side state only: the simulated
// machine is charged for every compression and decompression either way, and
// a snapshot carries neither.
//
// One field of each page, vm.Page.Memo, indexes both, and what it names
// depends on where the page is:
//
//   - resident: its slot in the compressed-form memo plus one (0: none), and
//     memoHit when its stay began with a compression-cache hit;
//   - not resident: its record in the plaintext ring plus one (0: none).
//
// A page only moves between the two through PageIn and PageOut, which
// rewrite the field on the way.
const (
	memoHit   = 1 << 30
	memoIndex = memoHit - 1
)

// compressMemo remembers, for resident pages PageIn restored from a
// compressed payload, that payload and its verified checksum. Compress is a
// pure function of a page's bytes, so while the page is clean the payload is
// what the codec would produce again, and PageOut takes it from here instead
// of running the codec — and the sum instead of running the CRC. Once the
// page is dirty the payload is still what the codec made of its bytes up to
// the first word written since (vm.Page.Unwritten), and PageOut has a codec
// that can resume from there.
type compressMemo struct {
	slots []memoSlot // frames of them
	free  []int32    // slot numbers not in use
	slab  []byte     // frames × keepThreshold bytes, allocated by the first remember
}

// memoSlot is how much of a slot the payload fills and the payload's sum.
type memoSlot struct {
	n   int32
	sum uint32
}

// remember copies the compressed payload PageIn has just verified against sum
// and decoded into a slot for the faulting page, and returns what the page's
// memo field is to say: the slot, and hit — memoHit when the payload was a
// compression-cache entry, 0 when a tier served it. PageIn runs for
// non-resident pages only and every PageOut gives the page's slot back, so
// the page has none yet and, at a slot per frame, one is free. A payload
// longer than a slot never entered the cache or a tier compressed. A page
// left without a slot is simply compressed again.
//
// PageIn writes the field only once nothing else can run before the page is
// resident: until then the field still reads as a plaintext record (see
// memoHit), and a tier restore's prefetch may evict other pages first.
func (m *Machine) remember(payload []byte, sum uint32, hit int32) int32 {
	mm := &m.memo
	size := m.cfg.keepThreshold()
	if mm.slab == nil {
		frames := m.Pool.Total()
		mm.slab = make([]byte, frames*size)
		mm.slots = make([]memoSlot, frames)
		mm.free = make([]int32, frames)
		for i := range mm.free {
			mm.free[i] = int32(i)
		}
	}
	if len(mm.free) == 0 || len(payload) > size {
		return hit
	}
	at := mm.free[len(mm.free)-1]
	mm.free = mm.free[:len(mm.free)-1]
	mm.slots[at] = memoSlot{int32(copy(mm.slab[int(at)*size:], payload)), sum}
	return hit | (at + 1)
}

// recall frees the resident page's slot and returns what it held, nil when
// the page has none; the page keeps its hit bit. The bytes stay put until
// the next remember, which only PageIn calls: PageOut is done with them by
// then.
func (m *Machine) recall(p *vm.Page) (payload []byte, sum uint32) {
	at := p.Memo&memoIndex - 1
	if at < 0 {
		return nil, 0
	}
	p.Memo &^= memoIndex
	mm := &m.memo
	mm.free = append(mm.free, at)
	off := int(at) * m.cfg.keepThreshold()
	return mm.slab[off : off+int(mm.slots[at].n)], mm.slots[at].sum
}

// plainMemo remembers the plaintext of pages that left memory compressed, so
// that a page coming straight back is copied into its frame instead of
// decoded. It is a ring of plainWindow records per frame in eviction order:
// every compressed departure whose sum is known writes one, and it lives
// until the page faults back in or plainWindow memories of later departures
// overwrite it. Only a page whose stay began with a compression-cache hit
// leaves its plaintext in the record: it has come back from the cache once,
// so it belongs to a working set the cache holds, and it is likely to again.
// A page that came cold, from a tier or through a fragment that failed its
// check has shown no such thing. Plaintext slots number at most one per
// frame; a hit page that departs while other records hold every slot keeps a
// record without one, and no record gives its slot up for it.
//
// The record also holds the sum of the travel form the page left with.
// restoreInto uses the plaintext only when the payload it has just verified
// carries that same sum, so a tier that serves some other version of the page
// is decoded as always.
type plainMemo struct {
	ring   []plainRecord // plainWindow × frames of them, allocated by the first departure
	next   int32         // the record the next departure overwrites: the oldest
	free   []int32       // plaintext slots not in use
	chunks [][]byte      // plaintext slots, plainChunk bytes at a time
}

// plainRecord is one departure.
type plainRecord struct {
	page *vm.Page // nil once the page has taken it back
	sum  uint32   // the travel form's checksum
	slot int32    // the plaintext's slot, -1 for none
}

// plainWindow is how many memories of departures a record outlives. A
// longer window finds more returning pages, but past eight their slots are
// held by records whose pages never come back (DESIGN.md "Remembered forms,
// both directions" has the sweep).
const plainWindow = 8

// plainChunk is how much plaintext storage grows by at a time; the last
// chunk is cut short so there is never more than a slot per frame.
const plainChunk = 64 << 10

// plainForm is a page's remembered plaintext and the sum of the travel form
// it belongs to; the zero value remembers nothing.
type plainForm struct {
	data []byte
	sum  uint32
}

// departPlain writes the record of a page that has just left memory with a
// travel form of checksum sum, copying data — the page's bytes — when hit is
// memoHit and a slot is free. The oldest record makes way: its page is no
// longer remembered, and its slot is free again.
func (m *Machine) departPlain(p *vm.Page, data []byte, sum uint32, hit int32) {
	pm := &m.plain
	if pm.ring == nil {
		frames := m.Pool.Total()
		pm.ring = make([]plainRecord, plainWindow*frames)
		pm.free = make([]int32, 0, frames)
	}
	i := pm.next
	if pm.next++; int(pm.next) == len(pm.ring) {
		pm.next = 0
	}
	r := &pm.ring[i]
	if r.page != nil {
		r.page.Memo = 0
		if r.slot >= 0 {
			pm.free = append(pm.free, r.slot)
		}
	}
	*r = plainRecord{page: p, sum: sum, slot: -1}
	p.Memo = i + 1
	if hit == 0 || len(pm.free) == 0 && !m.growPlain() {
		return
	}
	r.slot = pm.free[len(pm.free)-1]
	pm.free = pm.free[:len(pm.free)-1]
	copy(m.plainSlot(r.slot), data)
}

// growPlain adds a chunk of plaintext slots, unless the chunks already hold
// one per frame, and reports whether it did.
func (m *Machine) growPlain() bool {
	pm := &m.plain
	ps := m.cfg.PageSize
	per := max(1, plainChunk/ps)
	have, frames := len(pm.chunks)*per, m.Pool.Total()
	if have >= frames {
		return false
	}
	n := min(per, frames-have)
	pm.chunks = append(pm.chunks, make([]byte, n*ps))
	for s := have + n - 1; s >= have; s-- {
		pm.free = append(pm.free, int32(s))
	}
	return true
}

// plainSlot returns a plaintext slot's page of bytes.
func (m *Machine) plainSlot(slot int32) []byte {
	ps := m.cfg.PageSize
	per := max(1, plainChunk/ps)
	off := int(slot) % per * ps
	return m.plain.chunks[int(slot)/per][off : off+ps]
}

// returnPlain takes a faulting page's record and returns its remembered
// plaintext, if any. The slot is freed at once; its bytes stay put until the
// next departPlain, which only PageOut calls, and PageIn is done with them by
// then.
func (m *Machine) returnPlain(p *vm.Page) plainForm {
	i := p.Memo - 1
	if i < 0 {
		return plainForm{}
	}
	p.Memo = 0
	pm := &m.plain
	r := &pm.ring[i]
	r.page = nil
	if r.slot < 0 {
		return plainForm{}
	}
	pm.free = append(pm.free, r.slot)
	return plainForm{m.plainSlot(r.slot), r.sum}
}

// VerifyCompressMemo checks the memo against the codec it stands in for:
// every remembered page is resident, its slot holds that payload's checksum
// and exactly what its segment's codec makes of the frame's bytes now — of
// the bytes it decodes to, for a dirty page, which must equal the frame's in
// the page's unwritten prefix — no two pages share a slot, and slots in use
// plus free slots are the machine's frames. It runs the codec once per
// remembered page, so it is not part of CheckInvariants — the perf ledger
// times that call once per leg, and 256 recompressions there would cost the
// fleet workload about 4 % — tests call it directly. Nor does it charge the machine for them: an audit
// that moved the clock would change the run it audits.
func (m *Machine) VerifyCompressMemo() error {
	mm := &m.memo
	if mm.slab == nil {
		return m.eachPage(func(p *vm.Page) error {
			if p.State == vm.Resident && p.Memo&memoIndex != 0 {
				return fmt.Errorf("machine: compress memo: page %v names slot %d of a memo that holds nothing", p.Key, p.Memo&memoIndex-1)
			}
			return nil
		})
	}
	size, frames := m.cfg.keepThreshold(), m.Pool.Total()
	used := make([]bool, frames)
	for _, at := range mm.free {
		if uint(at) >= uint(frames) || used[at] {
			return fmt.Errorf("machine: compress memo: free slot %d out of range or listed twice", at)
		}
		used[at] = true
	}
	inUse := 0
	err := m.eachPage(func(p *vm.Page) error {
		if p.State != vm.Resident || p.Memo&memoIndex == 0 {
			return nil
		}
		at := p.Memo&memoIndex - 1
		if uint(at) >= uint(frames) || used[at] {
			return fmt.Errorf("machine: compress memo: page %v: slot %d out of range or already taken", p.Key, at)
		}
		used[at] = true
		inUse++
		s := mm.slots[at]
		if s.n < 0 || int(s.n) > size {
			return fmt.Errorf("machine: compress memo: page %v: slot %d claims %d bytes", p.Key, at, s.n)
		}
		held := mm.slab[int(at)*size:][:s.n]
		codec, frame := m.codecFor(p.Key.Seg), m.Pool.Bytes(p.Frame)
		if p.Dirty {
			// The frame has moved on from the bytes the slot was made of, but
			// not in its unwritten prefix, and the slot is still what the
			// codec makes of those bytes.
			old, err := codec.Decompress(nil, held)
			same := int(p.Unwritten) * 8
			if err != nil || len(old) != len(frame) || !bytes.Equal(old[:same], frame[:same]) {
				return fmt.Errorf("machine: compress memo: dirty page %v: slot's %d bytes do not decode to the frame's first %d (%v)", p.Key, s.n, same, err)
			}
			frame = old
		}
		if want := codec.Compress(nil, frame); !bytes.Equal(want, held) {
			return fmt.Errorf("machine: compress memo: page %v: slot holds %d bytes that are not what the codec makes of the frame (%d bytes)", p.Key, s.n, len(want))
		}
		if core.Checksum(held) != s.sum {
			return fmt.Errorf("machine: compress memo: page %v: slot's sum %#x is not its payload's", p.Key, s.sum)
		}
		return nil
	})
	if err == nil && inUse+len(mm.free) != frames {
		err = fmt.Errorf("machine: compress memo: %d slots in use + %d free != %d frames", inUse, len(mm.free), frames)
	}
	return err
}

// VerifyPlainMemo checks the plaintext memo: the ring holds plainWindow
// records per frame, every live record names a page that is not resident and
// names the record back, every non-resident page that names a record is that
// record's page, only a resident page carries the hit bit, no two records
// share a plaintext slot, and slots in use plus free slots are what the
// chunks hold — at most one per frame. Where the memo could serve a page's
// next fault from the cache — the entry carries the record's sum — the codec
// must decode the entry to the remembered plaintext. Like VerifyCompressMemo
// it runs the codec, charges nothing, and is for tests.
func (m *Machine) VerifyPlainMemo() error {
	pm := &m.plain
	frames := m.Pool.Total()
	named := 0
	if err := m.eachPage(func(p *vm.Page) error {
		if p.State == vm.Resident {
			if p.Memo&^(memoHit|memoIndex) != 0 {
				return fmt.Errorf("machine: plain memo: resident page %v has memo field %#x", p.Key, p.Memo)
			}
			return nil
		}
		if p.Memo == 0 {
			return nil
		}
		named++
		if p.Memo&^memoIndex != 0 {
			return fmt.Errorf("machine: plain memo: %v page %v has memo field %#x", p.State, p.Key, p.Memo)
		}
		if i := p.Memo - 1; int(i) >= len(pm.ring) || pm.ring[i].page != p {
			return fmt.Errorf("machine: plain memo: %v page %v names record %d, which is not its own", p.State, p.Key, i)
		}
		return nil
	}); err != nil || pm.ring == nil {
		return err
	}
	if len(pm.ring) != plainWindow*frames || pm.next < 0 || int(pm.next) >= len(pm.ring) {
		return fmt.Errorf("machine: plain memo: ring of %d records (next %d) for %d frames", len(pm.ring), pm.next, frames)
	}
	ps := m.cfg.PageSize
	per := max(1, plainChunk/ps)
	capacity := 0
	for j, c := range pm.chunks {
		if len(c)%ps != 0 || len(c) > per*ps || j < len(pm.chunks)-1 && len(c) != per*ps {
			return fmt.Errorf("machine: plain memo: chunk %d of %d holds %d bytes", j, len(pm.chunks), len(c))
		}
		capacity += len(c) / ps
	}
	if capacity > frames {
		return fmt.Errorf("machine: plain memo: %d chunks hold %d slots for %d frames", len(pm.chunks), capacity, frames)
	}
	used := make([]bool, capacity)
	for _, s := range pm.free {
		if uint(s) >= uint(capacity) || used[s] {
			return fmt.Errorf("machine: plain memo: free slot %d out of range or listed twice", s)
		}
		used[s] = true
	}
	live, inUse := 0, 0
	for i := range pm.ring {
		r := &pm.ring[i]
		if r.page == nil {
			continue
		}
		live++
		p := r.page
		if p.State == vm.Resident || p.Memo != int32(i)+1 {
			return fmt.Errorf("machine: plain memo: record %d names %v page %v, whose field says %d", i, p.State, p.Key, p.Memo)
		}
		if r.slot < 0 {
			continue
		}
		if uint(r.slot) >= uint(capacity) || used[r.slot] {
			return fmt.Errorf("machine: plain memo: record %d: slot %d out of range or already taken", i, r.slot)
		}
		used[r.slot] = true
		inUse++
		cdata, sum, ok := m.CC.Peek(p.Key)
		if !ok || sum != r.sum {
			continue
		}
		plain := m.plainSlot(r.slot)
		if got, err := m.codecFor(p.Key.Seg).Decompress(nil, cdata); err != nil || !bytes.Equal(got, plain) {
			return fmt.Errorf("machine: plain memo: page %v: the cache entry does not decode to the remembered plaintext (%v)", p.Key, err)
		}
	}
	if live != named {
		return fmt.Errorf("machine: plain memo: %d live records, %d pages name one", live, named)
	}
	if inUse+len(pm.free) != capacity {
		return fmt.Errorf("machine: plain memo: %d slots in use + %d free != %d in the chunks", inUse, len(pm.free), capacity)
	}
	return nil
}

// eachPage calls f for every page of every segment until f fails.
func (m *Machine) eachPage(f func(p *vm.Page) error) error {
	for _, seg := range m.VM.Segments() {
		for i := int32(0); i < seg.NPages; i++ {
			if err := f(seg.Page(i)); err != nil {
				return err
			}
		}
	}
	return nil
}
