package mem

import (
	"strings"
	"testing"

	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	p := NewPool(4, 64)
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"Pool", &p.poolState, p.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}

// TestSnapshotRejectsForgedFreeList: a free list that names a missing frame,
// an owned frame, or one frame twice must fail the restore — the next Alloc
// would hand out a wild or doubly-owned frame.
func TestSnapshotRejectsForgedFreeList(t *testing.T) {
	forgeries := map[string]func(p *Pool){
		"out of range": func(p *Pool) { p.free[0] = 99 },
		"owned":        func(p *Pool) { p.free[0] = 0 }, // frame 0 was allocated below
		"listed twice": func(p *Pool) { p.free[0] = p.free[1] },
	}
	for name, forge := range forgeries {
		p := NewPool(4, 64)
		p.Alloc(VM)
		forge(p)
		if err := snap.RoundTrip(p.Snap, NewPool(4, 64).Snap); err == nil || !strings.Contains(err.Error(), "free list") {
			t.Errorf("free list with a frame %s: err = %v, want the free-list complaint", name, err)
		}
	}
}
