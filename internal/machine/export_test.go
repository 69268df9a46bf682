package machine

import (
	"reflect"

	"compcache/internal/compress"
	"compcache/internal/mem"
	"compcache/internal/vm"
)

// ForgetMemos makes m forget every remembered form, in both directions,
// before each page-in and each eviction from now on, so that every
// compression and every decompression runs the codec, as it did before the
// memos existed. It is the control of the indistinguishability test and
// exists in test binaries only: the machine has no such setting. The pager it
// installs counts the evictions made while a page-in was under way.
func (m *Machine) ForgetMemos() *Amnesiac {
	a := &Amnesiac{Machine: m}
	m.VM.SetPager(a)
	return a
}

// Amnesiac is the pager ForgetMemos installs.
type Amnesiac struct {
	*Machine
	paging bool // inside PageIn

	// EvictedMidPageIn counts the evictions made inside a page-in: the
	// neighbours a tier restore brings along can take frames from other
	// pages before the faulting page is resident.
	EvictedMidPageIn int
}

func (a *Amnesiac) PageOut(p *vm.Page, data []byte) error {
	if a.paging {
		a.EvictedMidPageIn++
	}
	a.forget()
	return a.Machine.PageOut(p, data)
}

func (a *Amnesiac) PageIn(p *vm.Page, data []byte) (vm.Source, error) {
	a.forget()
	a.paging = true
	defer func() { a.paging = false }()
	return a.Machine.PageIn(p, data)
}

// PageInPrefix restores the whole page, as PageIn does: the forgetful
// machine decodes every page it restores in full.
func (a *Amnesiac) PageInPrefix(p *vm.Page, data []byte, _ int) (vm.Source, int, error) {
	src, err := a.PageIn(p, data)
	return src, len(data), err
}

// forget empties both memos and clears every page's hit bit, finishing every
// frame's pending tail first: a partial page's tail decodes from its form.
func (m *Machine) forget() {
	if err := m.finishTails(); err != nil {
		panic(err)
	}
	_ = m.eachPage(func(p *vm.Page) error {
		if p.HoldsFrame() {
			m.recall(p)
			p.Memo = 0
		} else {
			m.returnPlain(p)
		}
		return nil
	})
}

// Counted is the counting codec of alloc_test.go for the external tests.
var Counted = counted

// SetCodec makes m compress and decompress with c in place of the codec its
// configuration names, which still stands in every snapshot's fingerprint.
// c must be that codec in another guise (machine.Counted's wrapper): a test
// compares the two machines byte for byte.
func (m *Machine) SetCodec(c compress.Codec) { m.codec = c }

// PendingTails reports how many frames have a tail still to decode.
func (m *Machine) PendingTails() int {
	n := 0
	for _, s := range m.memo.slots {
		if s.dec != nil {
			n++
		}
	}
	return n
}

// WatchFileFrames makes the file cache's frame source count the frames it is
// given while their tails are pending, and returns the count so far.
func (m *Machine) WatchFileFrames() func() int {
	n := 0
	m.FS.SetFrameSource(func(o mem.Owner) (mem.FrameID, error) {
		id, err := m.alloc.AllocFrame(o)
		if err != nil {
			return mem.NoFrame, err
		}
		if m.memo.slots != nil && m.memo.slots[id].dec != nil {
			n++
		}
		m.claimTail(id, o)
		m.maybeClean()
		return id, nil
	})
	return func() int { return n }
}

// HeldFrames is alias_test.go's heldFrames for the external tests.
var HeldFrames = heldFrames

// FrameChunk is one chunk of the frame pool's storage: its first frame and
// the host addresses of its bytes, [Lo, Hi).
type FrameChunk struct {
	First  mem.FrameID
	Lo, Hi uintptr
}

// FrameChunks returns every chunk of frames the pool has made storage for.
// The chunk table is the pool's own and stays unexported, so a test reads it
// by reflection.
func (m *Machine) FrameChunks() []FrameChunk {
	table := reflect.ValueOf(m.Pool).Elem().FieldByName("data")
	var made []FrameChunk
	for i := 0; i < table.Len(); i++ {
		if c := table.Index(i); !c.IsNil() {
			lo := c.Pointer()
			made = append(made, FrameChunk{mem.FrameID(i * mem.ChunkFrames), lo, lo + uintptr(c.Len())})
		}
	}
	return made
}
