package machine

import "compcache/internal/vm"

// ForgetCompressMemo makes m forget every remembered compressed form before
// each eviction from now on, so that every compression runs the codec, as it
// did before the memo existed. It is the control of the indistinguishability
// test and exists in test binaries only: the machine has no such setting.
func (m *Machine) ForgetCompressMemo() { m.VM.SetPager(amnesiac{m}) }

type amnesiac struct{ *Machine }

func (a amnesiac) PageOut(p *vm.Page, data []byte) error {
	for _, key := range a.memo.slot.Keys() {
		a.recall(key)
	}
	return a.Machine.PageOut(p, data)
}

// Counted is the counting codec of alloc_test.go for the external tests.
var Counted = counted
