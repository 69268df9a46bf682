package disk

import (
	"testing"

	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	d, _ := newTestDisk(t)
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"Disk", &d.Timeline, d.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}
