package machine

import (
	"bytes"
	"fmt"
	"math"

	"compcache/internal/compress"
	"compcache/internal/core"
	"compcache/internal/fault"
	"compcache/internal/mem"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// forms is what the machine remembers of pages in both directions, so that
// bytes the host has just produced are not produced again (DESIGN.md
// "Remembered forms, both directions"). It is host-side state only: the
// simulated machine is charged for every compression and decompression
// either way, and a snapshot carries none of it. A nil *forms remembers
// nothing: every compression runs the codec, every restore decodes the whole
// page, and no frame has a tail (keepForms).
type forms struct {
	memo  compressMemo
	plain plainMemo
}

// One field of each page, vm.Page.Memo, indexes both memos, and what it
// names depends on where the page is:
//
//   - holding a frame (resident or partial): memoForm when its frame's slot
//     in the compressed-form memo holds its form, and memoHit when its stay
//     began with a compression-cache hit;
//   - not resident: its record in the plaintext ring plus one (0: none).
//
// A page only moves between the two through PageIn and PageOut, which
// rewrite the field on the way.
const (
	memoHit  = 1 << 30
	memoForm = 1 << 29
)

// compressMemo remembers, for resident pages PageIn restored from a
// compressed payload, that payload and its verified checksum. Compress is a
// pure function of a page's bytes, so while the page is clean the payload is
// what the codec would produce again, and PageOut takes it from here instead
// of running the codec — and the sum instead of running the CRC. The first
// write to the page takes its slot away (Dirtied).
//
// Slots are indexed by frame: slot F holds the form of F's current or last
// VM occupant. The slot is also where the frame's pending tail decodes from:
// a page restored only as far as the program read it (vm.Partial) leaves the
// rest of its frame to be decoded from its slot later, and the frame keeps
// that tail when the page leaves, because an eager machine would have left
// the whole page in the frame's bytes, which a snapshot carries. A tail is
// finished before a write to its page, when a read needs it, when a page
// worth remembering the plaintext of leaves (finishDeparting), before a
// snapshot, by VerifyCompressMemo, and when the frame goes to the file
// cache; it is dropped when the frame goes to the VM again, which overwrites
// the whole frame (DESIGN.md "Remembered forms, both directions").
type compressMemo struct {
	slots []memoSlot // one per frame
	slab  []byte     // frames × keepThreshold bytes, allocated by the first remember
}

// memoSlot is how much of a slot the payload fills, the payload's sum, and
// the frame's pending tail.
type memoSlot struct {
	n   int32
	sum uint32
	tail
}

// tail is the part of a frame still to be decoded from its slot: the first
// done bytes of the frame are decoded, and dec resumes at at. dec is nil when
// nothing is pending.
type tail struct {
	dec  compress.PrefixDecoder
	at   compress.Prefix
	done int
	key  swap.PageKey // the page the form is of, for the error a late rejection reports
}

// departing takes page p's remembered forms away from it as it leaves
// memory, whichever way it leaves, and returns its compressed form with the
// form's sum (nil when it has none: only a page still clean has one, since
// Dirtied takes it away), whether its stay began with a cache hit, and
// whether its frame holds all of it (finishDeparting). PageOut remembers its
// plaintext (departPlain) only if it does.
func (m *Machine) departing(p *vm.Page) (form []byte, sum uint32, hit, whole bool) {
	hit = p.Memo&memoHit != 0
	form, sum = m.recall(p)
	p.Memo = 0
	whole = p.State != vm.Partial || !m.hasTail(p.Frame) || m.finishDeparting(p, hit)
	return form, sum, hit, whole
}

// remember copies the compressed payload PageIn has just verified against sum
// into the slot of the faulting page's frame f and reports whether it did.
// PageIn runs for non-resident pages only, and the frame was given to the VM
// since its last occupant left, which dropped its tail. A payload longer
// than a slot never entered the cache or a tier compressed; a page left
// without a slot is simply compressed again.
func (m *Machine) remember(f mem.FrameID, payload []byte, sum uint32) bool {
	if m.forms == nil {
		return false
	}
	mm := &m.forms.memo
	size := m.cfg.keepThreshold()
	if mm.slab == nil {
		frames := m.Pool.Total()
		mm.slab = make([]byte, frames*size)
		mm.slots = make([]memoSlot, frames)
	}
	if len(payload) > size {
		return false
	}
	mm.slots[f] = memoSlot{n: int32(copy(mm.slab[int(f)*size:], payload)), sum: sum}
	return true
}

// recall takes the resident page's slot away from it and returns what the
// slot holds, nil when the page has none; the page keeps its hit bit. The
// bytes stay put until the next remember into the frame, which only a
// PageIn that the frame was given to calls: PageOut is done with them by
// then, and so is the frame's tail.
func (m *Machine) recall(p *vm.Page) (payload []byte, sum uint32) {
	if p.Memo&memoForm == 0 {
		return nil, 0
	}
	p.Memo &^= memoForm
	return m.slotBytes(p.Frame), m.forms.memo.slots[p.Frame].sum
}

// slotBytes returns what frame f's slot holds.
func (m *Machine) slotBytes(f mem.FrameID) []byte {
	size := m.cfg.keepThreshold()
	return m.forms.memo.slab[int(f)*size:][:m.forms.memo.slots[f].n]
}

// restorePage rebuilds page p in data, its frame, from a travel form, as far
// as a reference that needs the first need bytes requires, reports how many
// leading bytes of data hold the page, and writes the page's memo field:
// whether its frame's slot holds its form, and hit, whether the cache served
// it. A compressed payload that fits a slot, whose codec decodes by prefix
// and for which the plaintext memo has nothing is verified, remembered, and
// decoded from the slot only as far as need; the rest of the frame is its
// pending tail. Anything else is restored whole (restoreInto). The simulated
// machine is charged the whole decompression either way.
func (m *Machine) restorePage(p *vm.Page, data, payload []byte, compressed bool, sum uint32, known plainForm, hit bool, need int) (valid int, err error) {
	var plain []byte
	if known.sum == sum {
		plain = known.data
	}
	var dec compress.PrefixDecoder
	lazy := m.forms != nil && compressed && need < len(data) && len(payload) <= m.cfg.keepThreshold() && plain == nil
	if lazy {
		dec, lazy = m.codecFor(p.Key.Seg).(compress.PrefixDecoder)
	}
	if lazy {
		err = m.verify(data, payload, true, sum, p.Key)
	} else {
		err = m.restoreInto(data, payload, compressed, sum, p.Key, plain)
	}
	if err != nil {
		return 0, err
	}
	valid = len(data)
	if compressed && m.remember(p.Frame, payload, sum) {
		p.Memo = memoForm
	}
	if lazy {
		m.forms.memo.slots[p.Frame].tail = tail{dec: dec, key: p.Key}
		if valid, err = m.decodeTail(p.Frame, need); err != nil {
			p.Memo = 0
			return 0, err
		}
	}
	if hit && m.forms != nil {
		p.Memo |= memoHit
	}
	return valid, nil
}

// decodeTail decodes frame f's pending tail until at least need leading
// bytes of the frame hold its page and twice what was decoded before, or to
// the end, and returns how many do: a program that reads past the prefix
// tends to read on, and a page read through from the start then takes a
// handful of steps, not one per group. A codec rejection or a wrong length
// is a *fault.CorruptionError, as in restoreInto, and leaves the frame with
// no tail.
func (m *Machine) decodeTail(f mem.FrameID, need int) (int, error) {
	if !m.hasTail(f) {
		return m.cfg.PageSize, nil
	}
	frame, t := m.Pool.Bytes(f), &m.forms.memo.slots[f].tail
	src, upto := m.slotBytes(f), max(need, 2*t.done)
	out, at, err := frame[:t.done], t.at, error(nil)
	for {
		if out, at, err = t.dec.DecompressPrefix(out, src, at, upto); err != nil || at.Done() || len(out) < len(frame) {
			break
		}
		// The page is all there and the block goes on: it must end here
		// without a byte more, or it is not the page's.
		upto = math.MaxInt
	}
	var reject *fault.CorruptionError
	switch {
	case err != nil:
		reject = &fault.CorruptionError{Page: t.key.String(), Reason: "codec rejected fragment", Err: err}
	case at.Done() && len(out) != len(frame):
		reject = &fault.CorruptionError{Page: t.key.String(), Reason: fmt.Sprintf("decompressed to %d bytes, want %d", len(out), len(frame))}
	}
	if reject != nil {
		t.dec = nil
		m.fst.CorruptionsDetected++
		return 0, reject
	}
	t.at, t.done = at, len(out)
	if at.Done() {
		t.dec = nil
	}
	return len(out), nil
}

// hasTail reports whether frame f has a tail still to decode.
func (m *Machine) hasTail(f mem.FrameID) bool {
	return m.forms != nil && m.forms.memo.slots != nil && m.forms.memo.slots[f].dec != nil
}

// finishDeparting reports whether departing partial page p, whose frame has
// a tail, leaves with all of the page in its frame. A page whose stay began
// with a cache hit and that was read past an eighth of its frame is finished
// first, so that its plaintext can be remembered: a page the cache has
// served once is likely to come back, and copying a page in costs the host
// less than decoding an eighth of one again. Any other partial page leaves
// no plaintext record: it has a remembered form — only a write makes a page
// dirty, and a write finishes the page first — so it travels as that form,
// no byte of its frame read, and the frame keeps the tail.
func (m *Machine) finishDeparting(p *vm.Page, hit bool) bool {
	size := m.cfg.PageSize
	if !hit || m.forms.memo.slots[p.Frame].done < size/8 {
		return false
	}
	valid, err := m.decodeTail(p.Frame, size)
	return err == nil && valid == size
}

// finishTails decodes every frame's pending tail, so that each frame holds
// what it would on a machine that restores pages whole.
func (m *Machine) finishTails() error {
	for f := range m.Pool.Total() {
		if _, err := m.decodeTail(mem.FrameID(f), math.MaxInt); err != nil {
			return fmt.Errorf("machine: frame %d: %w", f, err)
		}
	}
	return nil
}

// claimTail settles frame f's pending tail as allocFrame gives the frame to
// owner, the VM or the file cache. The VM overwrites a frame it is given
// whole, so the tail is dropped (as TakeFrame drops it for the compression
// cache); the file cache may leave the frame unwritten (a device read that
// fails), so the tail is finished first, as an eager machine would have had
// it.
func (m *Machine) claimTail(f mem.FrameID, owner mem.Owner) {
	if owner == mem.FS {
		if _, err := m.decodeTail(f, math.MaxInt); err != nil {
			return // a rejection leaves no tail either
		}
	}
	m.forms.memo.slots[f].dec = nil
}

// TakeFrame drops frame f's pending tail as the compression cache takes the
// frame (core.FrameTaker). The cache clears the frame and writes its entries
// there, as the VM overwrites a frame it is given whole, so no later decode
// may write over them. The machine wires the memo it keeps, which holds no
// tail in a build or machine that forgets.
func (mm *compressMemo) TakeFrame(f mem.FrameID) {
	if mm.slots != nil {
		mm.slots[f].dec = nil
	}
}

// knownLen returns the length of codec's output for an n-byte page when
// that length depends on n alone (fixedLen), so the codec need not run to
// tell that the page misses the keep threshold, and 0 otherwise.
func (m *Machine) knownLen(codec compress.Codec, n int) int {
	if f, ok := codec.(fixedLen); ok && m.forms != nil {
		return f.CompressedLen(n)
	}
	return 0
}

// fixedLen is a codec whose output length depends on its input's length
// alone: CompressedLen(n) is len(Compress(nil, src)) for every n-byte src
// (compress.Null is one).
type fixedLen interface {
	CompressedLen(n int) int
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

// departPlain writes the record of a page that has just left memory whole
// with a travel form of checksum sum, copying data — the page's bytes — when
// its stay began with a cache hit and a slot is free. The oldest record
// makes way: its page is no longer remembered, and its slot is free again.
func (m *Machine) departPlain(p *vm.Page, data []byte, sum uint32, hit bool) {
	if m.forms == nil {
		return
	}
	pm := &m.forms.plain
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
	if !hit || len(pm.free) == 0 && !m.growPlain() {
		return
	}
	r.slot = pm.free[len(pm.free)-1]
	pm.free = pm.free[:len(pm.free)-1]
	copy(m.plainSlot(r.slot), data)
}

// growPlain adds a chunk of plaintext slots, unless the chunks already hold
// one per frame, and reports whether it did.
func (m *Machine) growPlain() bool {
	pm := &m.forms.plain
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
	return m.forms.plain.chunks[int(slot)/per][off : off+ps]
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
	pm := &m.forms.plain
	r := &pm.ring[i]
	r.page = nil
	if r.slot < 0 {
		return plainForm{}
	}
	pm.free = append(pm.free, r.slot)
	return plainForm{m.plainSlot(r.slot), r.sum}
}

// VerifyCompressMemo checks the memo against the codec it stands in for:
// every remembered page is clean and holds a frame, whose slot holds that
// payload's checksum and exactly what its segment's codec makes of the
// frame's bytes now, and a partial page is remembered and its frame's tail
// is not ahead of what the page says is decoded. It finishes every pending
// tail first, the way a snapshot does, since it reads frames. It runs the
// codec once per remembered page, so it is not part of CheckInvariants — the
// perf ledger times that call once per leg, and 256 recompressions there
// would cost the fleet workload about 4 % — tests call it directly. Nor does
// it charge the machine for them: an audit that moved the clock would change
// the run it audits.
func (m *Machine) VerifyCompressMemo() error {
	if m.forms == nil {
		return nil
	}
	mm := &m.forms.memo
	size := m.cfg.keepThreshold()
	if err := m.eachPage(func(p *vm.Page) error {
		switch named := p.HoldsFrame() && p.Memo&memoForm != 0; {
		case p.State == vm.Partial && !named:
			return fmt.Errorf("machine: compress memo: partial page %v in frame %d does not name its frame's slot", p.Key, p.Frame)
		case named && mm.slab == nil:
			return fmt.Errorf("machine: compress memo: %v page %v names its frame's slot of a memo that holds nothing", p.State, p.Key)
		case p.State == vm.Partial:
			if t := mm.slots[p.Frame].tail; t.dec != nil && (t.done < int(p.Valid)*8 || t.key != p.Key) {
				return fmt.Errorf("machine: compress memo: partial page %v has %d words decoded, its frame's tail %d bytes of page %v", p.Key, p.Valid, t.done, t.key)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := m.finishTails(); err != nil {
		return fmt.Errorf("machine: compress memo: %w", err)
	}
	return m.eachPage(func(p *vm.Page) error {
		if !p.HoldsFrame() || p.Memo&memoForm == 0 {
			return nil
		}
		if p.Dirty {
			return fmt.Errorf("machine: compress memo: dirty page %v names slot %d", p.Key, p.Frame)
		}
		s := mm.slots[p.Frame]
		if s.n < 0 || int(s.n) > size {
			return fmt.Errorf("machine: compress memo: page %v: slot %d claims %d bytes", p.Key, p.Frame, s.n)
		}
		held := m.slotBytes(p.Frame)
		if want := m.codecFor(p.Key.Seg).Compress(nil, m.Pool.Bytes(p.Frame)); !bytes.Equal(want, held) {
			return fmt.Errorf("machine: compress memo: page %v: slot holds %d bytes that are not what the codec makes of the frame (%d bytes)", p.Key, s.n, len(want))
		}
		if core.Checksum(held) != s.sum {
			return fmt.Errorf("machine: compress memo: page %v: slot's sum %#x is not its payload's", p.Key, s.sum)
		}
		return nil
	})
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
	if m.forms == nil {
		return nil
	}
	pm := &m.forms.plain
	frames := m.Pool.Total()
	named := 0
	if err := m.eachPage(func(p *vm.Page) error {
		if p.HoldsFrame() {
			if p.Memo&^(memoHit|memoForm) != 0 {
				return fmt.Errorf("machine: plain memo: resident page %v has memo field %#x", p.Key, p.Memo)
			}
			return nil
		}
		if p.Memo == 0 {
			return nil
		}
		named++
		if p.Memo&^(memoForm-1) != 0 {
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
		if p.HoldsFrame() || p.Memo != int32(i)+1 {
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
