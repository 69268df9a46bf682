package fs

import (
	"strings"
	"testing"

	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	f, _, _, _ := newTestFS(t, Options{})
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"FS", &f.fsState, f.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}

// TestSnapshotRejectsBlockCachedTwice: a buffer cache that lists one block
// twice would index one entry and leak the other's frame.
func TestSnapshotRejectsBlockCachedTwice(t *testing.T) {
	f, _, _, _ := newTestFS(t, Options{})
	f.Create("data").WriteAt(make([]byte, 2*4096), 0)
	if f.CacheLen() != 2 {
		t.Fatalf("cache holds %d blocks, want 2", f.CacheLen())
	}
	f.lruTail.key = f.lruHead.key
	fresh, _, _, _ := newTestFS(t, Options{})
	if err := snap.RoundTrip(f.Snap, fresh.Snap); err == nil || !strings.Contains(err.Error(), "cached twice") {
		t.Errorf("snapshot caching one block twice: err = %v, want the cached-twice complaint", err)
	}
}
