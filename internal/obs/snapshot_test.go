package obs

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"compcache/internal/sim"
	"compcache/internal/snap"
)

// TestSnapshotCoversState runs each state walk under snap.Uncovered: a field of
// an xxxState struct the walk never visits is a field snapshots lose.
func TestSnapshotCoversState(t *testing.T) {
	b := NewBus(Options{})
	for _, tc := range []struct {
		name  string
		state any
		walk  func(*snap.Codec)
	}{
		{"Bus", &b.busState, b.Snap},
		{"Registry", &b.reg, b.Snap},
	} {
		if missing := snap.Uncovered(tc.state, tc.walk); len(missing) != 0 {
			t.Errorf("%s.Snap never visits state field(s) %v", tc.name, missing)
		}
	}
}

// TestSnapWalksTheWindowInPlace: a snapshot walks a full default window a
// record at a time, so encoding it allocates next to nothing beyond the
// stream, and decoding it next to nothing beyond the log it rebuilds — not
// the 3 MiB of a []Event of 2^16 events. The rebuilt bus encodes to the same
// bytes.
func TestSnapWalksTheWindowInPlace(t *testing.T) {
	b := NewBus(Options{})
	for i := range DefaultRingSize + 10 {
		b.Emit(Event{T: sim.Time(i) * 3500, Class: ClassFault, Sub: SubVM, Seg: 1, Page: int32(i % 700),
			Dur: 2100 * time.Microsecond, Aux: FaultSrcSwap})
	}
	if b.Len() != DefaultRingSize {
		t.Fatalf("Len = %d, want %d", b.Len(), DefaultRingSize)
	}
	encode := func(b *Bus, into []byte) []byte {
		enc := snap.Encoder(&snap.Writer{})
		enc.Reset(into)
		b.Snap(enc)
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		return enc.Raw()
	}
	stream := encode(b, nil)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	into := make([]byte, 0, len(stream))
	if n := allocated(func() { encode(b, into) }); n >= 64<<10 {
		t.Errorf("encoding a full window into a stream of its size allocated %d bytes, want under 64 KB", n)
	}
	restored := NewBus(Options{})
	dec := snap.Decoder(&snap.Reader{})
	dec.Reset(stream)
	if n := allocated(func() { restored.Snap(dec) }); n >= 1<<20 {
		t.Errorf("decoding a full window allocated %d bytes, want under 1 MiB", n)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if again := encode(restored, nil); !bytes.Equal(again, stream) {
		t.Error("the restored window encodes to other bytes")
	}
}
