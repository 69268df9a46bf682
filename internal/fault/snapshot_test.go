package fault

import (
	"testing"

	"compcache/internal/sim"
	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	in, err := New(Config{Seed: 1}, &sim.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"Injector", &in.injectorState, in.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}
