package swap

import (
	"testing"

	"compcache/internal/fs"
	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	l, _, _ := newLFS(t, LFSConfig{Durable: true})
	c, fsys, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	d, err := NewDirect(fsys, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"LFS", &l.lfsState, l.Snap},
		{"Clustered", &c.clusteredState, c.Snap},
		{"Direct", &d.directState, d.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}

// TestSnapshotRejectsForgedStoreState: scalars no run can produce — a
// first-fit hint outside the bitmap (alloc would index or grow without
// bound), a stage count beyond the open segment, a negative pending segment —
// must fail the restore instead of booby-trapping the store.
func TestSnapshotRejectsForgedStoreState(t *testing.T) {
	restoreFails := func(name string, enc, dec func(*snap.Codec)) {
		if snap.RoundTrip(enc, dec) == nil {
			t.Errorf("%s: forged snapshot accepted", name)
		}
	}
	c, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	c.hint = 1 << 40
	fresh, _, _ := newClustered(t, fs.Options{}, ClusterConfig{})
	restoreFails("clustered hint", c.Snap, fresh.Snap)

	for name, forge := range map[string]func(*LFS){
		"lfs stage count":     func(l *LFS) { l.curUsed = 99 },
		"lfs pending segment": func(l *LFS) { l.pending = []lfsPending{{seg: -1}} },
	} {
		l, _, _ := newLFS(t, LFSConfig{})
		forge(l)
		fresh, _, _ := newLFS(t, LFSConfig{})
		restoreFails(name, l.Snap, fresh.Snap)
	}
}
