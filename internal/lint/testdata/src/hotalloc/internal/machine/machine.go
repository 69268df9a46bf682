// Package machine holds the PageIn/PageOut hot-root fixtures for the
// hotalloc analyzer. The acceptance case lives here: a make() buried in
// a helper the fault-service path reaches must be reported with the full
// call chain.
package machine

// Machine is a miniature of the real machine: a backing map standing in
// for the swap store and a pooled scratch buffer.
type Machine struct {
	store   map[int64][]byte
	scratch []byte
	below   level
}

// Tier is the dispatch seam under the machine.
type Tier interface {
	Put(page int64, data []byte) error
}

// level embeds the interface, so below.Put is a method promoted through the
// embedded field: the selection's receiver is a struct, the dispatch is
// dynamic all the same, and every implementation must stay in view.
type level struct {
	Tier
	name string
}

// spill is the implementation behind the seam; nothing names it statically.
type spill struct{ sum byte }

// Put stages a fresh copy per call.
func (s *spill) Put(page int64, data []byte) error {
	tmp := make([]byte, len(data)) // want `hot path PageOut → machine\.Put: make\(\[\]byte, len\(data\)\) allocates in steady state`
	copy(tmp, data)
	s.sum = tmp[0]
	return nil
}

// PageIn is a hot root; everything it reaches must not allocate in
// steady state. The violation is in restoreInto, one call down.
func (m *Machine) PageIn(page int64, frame []byte) error {
	return m.restoreInto(frame, m.store[page])
}

// PageOut's own body stays on the clean path: the cap-guard growth of a
// pooled field and the map write are both amortized, not steady-state. The
// violation is behind the embedded interface it hands the page to.
func (m *Machine) PageOut(page int64, frame []byte) error {
	if cap(m.scratch) < len(frame) {
		m.scratch = make([]byte, len(frame)) // warm: pooled field growth
	}
	buf := m.scratch[:len(frame)]
	copy(buf, frame)
	m.store[page] = buf // warm: map rehash is amortized
	return m.below.Put(page, buf)
}

// restoreInto is the acceptance criterion's target: inserting a
// make([]byte, n) here must be caught, with the chain from PageIn.
func (m *Machine) restoreInto(dst, src []byte) error {
	tmp := make([]byte, len(src)) // want `hot path PageIn.*restoreInto: make\(\[\]byte, len\(src\)\) allocates in steady state`
	copy(tmp, src)
	copy(dst, tmp)
	return nil
}
