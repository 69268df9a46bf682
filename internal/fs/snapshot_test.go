package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// TestSnapshotRejectsBlockOutsideExtent: the platter is a table by block
// number, so a forged block number must be refused, not allocated up to; and
// recovery sweeps a file by its size, so a forged size must be refused too.
func TestSnapshotRejectsBlockOutsideExtent(t *testing.T) {
	f, _, _, _ := newTestFS(t, Options{})
	f.Create("data").WriteAt(make([]byte, 4096), 0)
	w := snap.NewWriter()
	f.Snap(snap.Encoder(w))
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// After the file's name come id, base, size and the block count; then the
	// first block number.
	at := bytes.Index(blob, []byte("data")) + len("data") + 4 + 8 + 8 + 8
	for _, block := range []int64{-1, fileExtent / 4096, 1 << 40} {
		body := bytes.Clone(blob[:len(blob)-4])
		binary.LittleEndian.PutUint64(body[at:], uint64(block))
		r, err := snap.NewReader(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, _, _ := newTestFS(t, Options{})
		fresh.Snap(snap.Decoder(r))
		if err := r.Close(); err == nil || !strings.Contains(err.Error(), "platter blocks: id") {
			t.Errorf("snapshot with block %d: err = %v, want the block-id complaint", block, err)
		}
	}
	// The file came with one block, so a size up to 4096 is one a write could
	// have left and the next byte is not.
	for _, size := range []int64{-1, 4097, fileExtent, fileExtent + 1, 1 << 40} {
		body := bytes.Clone(blob[:len(blob)-4])
		binary.LittleEndian.PutUint64(body[at-16:], uint64(size))
		r, err := snap.NewReader(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, _, _ := newTestFS(t, Options{})
		fresh.Snap(snap.Decoder(r))
		var se *SizeError
		if err := r.Close(); !errors.As(err, &se) || se.Size != size || se.Written != 4096 {
			t.Errorf("snapshot with size %d: err = %v, want a *SizeError", size, err)
		}
	}
	body := bytes.Clone(blob[:len(blob)-4])
	binary.LittleEndian.PutUint64(body[at-16:], 100)
	r, err := snap.NewReader(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, _, _ := newTestFS(t, Options{})
	fresh.Snap(snap.Decoder(r))
	if err := r.Close(); err != nil || fresh.files["data"].Size() != 100 {
		t.Errorf("snapshot with a size inside the written block: err = %v", err)
	}
}

// TestTruncateReleasesFramesInAFixedOrder: re-creating a cached file hands
// its frames back to the pool in one order, so the pool's snapshot, which
// records the free list, is the same in every fresh file system.
func TestTruncateReleasesFramesInAFixedOrder(t *testing.T) {
	var first []byte
	for i := 0; i < 20; i++ {
		f, _, _, pool := newTestFS(t, Options{})
		if err := f.Create("data").WriteAt(make([]byte, 32*4096), 0); err != nil {
			t.Fatal(err)
		}
		if f.CacheLen() != 32 {
			t.Fatalf("cache holds %d blocks, want 32", f.CacheLen())
		}
		f.Create("data")
		w := snap.NewWriter()
		pool.Snap(snap.Encoder(w))
		blob, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = blob
		} else if !bytes.Equal(blob, first) {
			t.Fatalf("file system %d's pool snapshot differs from the first's", i)
		}
	}
}
