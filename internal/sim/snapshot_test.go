package sim

import (
	"testing"

	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	k := NewKernel()
	c := k.NewClock(0)
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"Clock", &c.clockState, c.Snap},
		{"Kernel", &k.kernelState, k.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}

// TestKernelRestoreRefusesOutOfRangeActor: actor IDs index the kernel's
// table, so a snapshot naming one outside it is refused, not sized for.
func TestKernelRestoreRefusesOutOfRangeActor(t *testing.T) {
	for _, bad := range []ActorID{-1, maxActors} {
		w := snap.NewWriter()
		c := snap.Encoder(w)
		var now, save Time
		var seq uint64
		actors, events := 1, 0
		c.Section("sim.kernel")
		snap.Int64(c, &now)
		c.U64(&seq)
		c.Int(&actors)
		snap.Int32(c, &bad)
		snap.Int64(c, &save)
		c.Int(&events)
		img, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		r, err := snap.NewReader(img)
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernel()
		k.Snap(snap.Decoder(r))
		if err := r.Close(); err == nil {
			t.Errorf("restore accepted actor %d", bad)
		}
		if len(k.actors) != 0 {
			t.Errorf("restore of actor %d grew the table to %d slots", bad, len(k.actors))
		}
	}
}
