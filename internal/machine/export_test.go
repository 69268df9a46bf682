package machine

import (
	"reflect"

	"compcache/internal/compress"
	"compcache/internal/mem"
	"compcache/internal/vm"
)

// ForgetMemos makes m remember nothing from now on, in both directions, so
// that every compression and every decompression runs the codec and every
// page is restored whole, as before the memos existed: it finishes every
// frame's pending tail, clears every page's memo field and sets the nil
// seam (memo.go). It is the control of the indistinguishability test and
// exists in test binaries only; a build with the ccforget tag makes every
// machine so.
func (m *Machine) ForgetMemos() {
	if err := m.finishTails(); err != nil {
		panic(err)
	}
	_ = m.eachPage(func(p *vm.Page) error {
		p.Memo = 0
		return nil
	})
	m.forms = nil
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
	for f := range m.Pool.Total() {
		if m.hasTail(mem.FrameID(f)) {
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
		if m.hasTail(id) {
			n++
			m.claimTail(id, o)
		}
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
