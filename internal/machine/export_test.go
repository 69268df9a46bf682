package machine

import (
	"compcache/internal/compress"
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

// forget empties both memos and clears every page's hit bit.
func (m *Machine) forget() {
	_ = m.eachPage(func(p *vm.Page) error {
		if p.State == vm.Resident {
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
