package machine

import (
	"bytes"
	"fmt"

	"compcache/internal/swap"
	"compcache/internal/vm"
)

// compressMemo remembers, for resident pages not modified since PageIn
// restored them, the compressed payload they were restored from. Compress is
// a pure function of a page's bytes, so while the bytes cannot change that
// payload is what the codec would produce again, and PageOut takes it from
// here instead of running the codec (DESIGN.md "Remembered compressed forms").
// It is host-side state only: the simulated machine is charged for the
// compression either way, and a snapshot does not carry it.
type compressMemo struct {
	slot swap.PageTable[memoSlot] // page → its slot; keyed by page because Evict clears p.Frame before PageOut
	free []int32                  // slot numbers not in use
	slab []byte                   // frames × keepThreshold bytes, allocated by the first remember
}

// memoSlot names one slot of the slab and how much of it the payload fills.
type memoSlot struct{ at, n int32 }

// remember copies the compressed payload PageIn has just verified and decoded
// into a slot for the page. PageIn runs for non-resident pages only and every
// PageOut gives the page's slot back, so the page has none yet and, at a slot
// per frame, one is free. A payload longer than a slot never entered the
// cache or a tier compressed. A page left without a slot is simply compressed
// again.
func (m *Machine) remember(key swap.PageKey, payload []byte) {
	mm := &m.memo
	size := m.cfg.keepThreshold()
	if mm.slab == nil {
		frames := m.Pool.Total()
		mm.slab = make([]byte, frames*size)
		mm.free = make([]int32, frames)
		for i := range mm.free {
			mm.free[i] = int32(i)
		}
	}
	if len(mm.free) == 0 || len(payload) > size {
		return
	}
	at := mm.free[len(mm.free)-1]
	mm.free = mm.free[:len(mm.free)-1]
	mm.slot.Set(key, memoSlot{at, int32(copy(mm.slab[int(at)*size:], payload))})
}

// recall frees the page's slot and returns what it held, nil when the page
// has none. The bytes stay put until the next remember, which only PageIn
// calls: PageOut is done with them by then.
func (m *Machine) recall(key swap.PageKey) []byte {
	mm := &m.memo
	s, ok := mm.slot.Get(key)
	if !ok {
		return nil
	}
	mm.slot.Delete(key)
	mm.free = append(mm.free, s.at)
	off := int(s.at) * m.cfg.keepThreshold()
	return mm.slab[off : off+int(s.n)]
}

// VerifyCompressMemo checks the memo against the codec it stands in for:
// every remembered page is resident and clean, its slot holds exactly what
// its segment's codec makes of the frame's bytes now, no two pages share a
// slot, and slots in use plus free slots are the machine's frames. It runs
// the codec once per remembered page, so it is not part of CheckInvariants —
// the perf ledger times that call once per leg, and 256 recompressions there
// would cost the fleet workload about 4 % — tests call it directly. Nor does
// it charge the machine for them: an audit that moved the clock would change
// the run it audits.
func (m *Machine) VerifyCompressMemo() error {
	mm := &m.memo
	if mm.slab == nil && mm.slot.Len()+len(mm.free) == 0 {
		return nil // nothing remembered yet
	}
	size, frames := m.cfg.keepThreshold(), m.Pool.Total()
	used := make([]bool, frames)
	for _, at := range mm.free {
		if uint(at) >= uint(frames) || used[at] {
			return fmt.Errorf("machine: compress memo: free slot %d out of range or listed twice", at)
		}
		used[at] = true
	}
	if mm.slot.Len()+len(mm.free) != frames {
		return fmt.Errorf("machine: compress memo: %d slots in use + %d free != %d frames", mm.slot.Len(), len(mm.free), frames)
	}
	var err error
	mm.slot.Range(func(key swap.PageKey, s memoSlot) {
		if err != nil {
			return
		}
		if uint(s.at) >= uint(frames) || used[s.at] || s.n < 0 || int(s.n) > size {
			err = fmt.Errorf("machine: compress memo: page %v: slot %d (%d bytes) out of range or already taken", key, s.at, s.n)
			return
		}
		used[s.at] = true
		seg := m.VM.Segment(key.Seg)
		if seg == nil || uint(key.Page) >= uint(seg.NPages) {
			err = fmt.Errorf("machine: compress memo: page %v does not exist", key)
			return
		}
		if p := seg.Page(key.Page); p.State != vm.Resident || p.Dirty {
			err = fmt.Errorf("machine: compress memo: page %v remembered while %v, dirty=%v", key, p.State, p.Dirty)
		} else if want := m.codecFor(key.Seg).Compress(nil, m.Pool.Bytes(p.Frame)); !bytes.Equal(want, mm.slab[int(s.at)*size:][:s.n]) {
			err = fmt.Errorf("machine: compress memo: page %v: slot holds %d bytes that are not what the codec makes of the frame (%d bytes)", key, s.n, len(want))
		}
	})
	return err
}
