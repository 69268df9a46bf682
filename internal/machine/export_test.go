package machine

import "compcache/internal/vm"

// ForgetMemos makes m forget every remembered form, in both directions,
// before each page-in and each eviction from now on, so that every
// compression and every decompression runs the codec, as it did before the
// memos existed. It is the control of the indistinguishability test and
// exists in test binaries only: the machine has no such setting.
func (m *Machine) ForgetMemos() { m.VM.SetPager(amnesiac{m}) }

type amnesiac struct{ *Machine }

func (a amnesiac) PageOut(p *vm.Page, data []byte) error {
	a.forget()
	return a.Machine.PageOut(p, data)
}

func (a amnesiac) PageIn(p *vm.Page, data []byte) (vm.Source, error) {
	a.forget()
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
