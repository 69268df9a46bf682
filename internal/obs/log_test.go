package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"compcache/internal/sim"
	"compcache/internal/snap"
)

// ringModel is the event window as a plain []Event ring: what a bus with
// RingSize size and the enable mask retains, drops and returns.
type ringModel struct {
	ring    []Event
	size    int
	start   int
	dropped uint64
}

func (m *ringModel) emit(e Event) {
	if len(m.ring) < m.size {
		m.ring = append(m.ring, e)
		return
	}
	m.ring[m.start] = e
	m.start = (m.start + 1) % m.size
	m.dropped++
}

func (m *ringModel) events() []Event {
	return append(slices.Clone(m.ring[m.start:]), m.ring[:m.start]...)
}

// fuzzValue reads one value from the front of data: a control byte picks
// zero, a small signed byte, an int16, eight raw bytes, or an int64 or int32
// extreme, so every field reaches its edges in a few mutations. An exhausted
// input reads zeros.
func fuzzValue(data *[]byte) int64 {
	take := func(n int) []byte {
		var b [8]byte
		k := copy(b[:n], *data)
		*data = (*data)[k:]
		return b[:]
	}
	switch take(1)[0] % 8 {
	case 1:
		return int64(int8(take(1)[0]))
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(take(2))))
	case 3:
		return int64(binary.LittleEndian.Uint64(take(8)))
	case 4:
		return math.MinInt64
	case 5:
		return math.MaxInt64
	case 6:
		return math.MinInt32
	case 7:
		return math.MaxInt32
	}
	return 0
}

// fuzzEvent reads T, Class, Sub, Seg, Page, Bytes, Dur and Aux, in that
// order, from the front of data. T is absolute, so it may run backwards.
func fuzzEvent(data *[]byte) Event {
	return Event{
		T:     sim.Time(fuzzValue(data)),
		Class: Class(fuzzValue(data)),
		Sub:   Subsystem(fuzzValue(data)),
		Seg:   int32(fuzzValue(data)),
		Page:  int32(fuzzValue(data)),
		Bytes: fuzzValue(data),
		Dur:   time.Duration(fuzzValue(data)),
		Aux:   fuzzValue(data),
	}
}

// checkLog emits every event data holds on a bus with RingSize ring+1 and
// the given mask, and checks Len, Dropped and Events against ringModel
// after each emission, then a snapshot round trip: the restored bus holds
// the same window, and encoding it again gives the same bytes. It returns
// the bus that emitted.
func checkLog(t *testing.T, ring uint32, mask Class, data []byte) *Bus {
	t.Helper()
	size := int(ring) + 1
	b := NewBus(Options{Classes: mask, RingSize: size})
	m := &ringModel{size: size}
	for len(data) > 0 {
		e := fuzzEvent(&data)
		b.Emit(e)
		if b.Mask()&e.Class != 0 {
			m.emit(e)
		}
		if b.Len() != len(m.ring) || b.Dropped() != m.dropped {
			t.Fatalf("after %+v: Len %d, Dropped %d; want %d, %d", e, b.Len(), b.Dropped(), len(m.ring), m.dropped)
		}
	}
	want := m.events()
	if got := b.Events(); !slices.Equal(got, want) {
		t.Fatalf("Events() = %+v\nwant       %+v", got, want)
	}

	img := snapBus(t, b)
	restored := NewBus(Options{Classes: mask, RingSize: size})
	r, err := snap.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	restored.Snap(snap.Decoder(r))
	if err := r.Close(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := restored.Events(); !slices.Equal(got, want) {
		t.Fatalf("restored Events() = %+v\nwant                %+v", got, want)
	}
	if restored.Len() != b.Len() || restored.Dropped() != b.Dropped() {
		t.Fatalf("restored Len %d, Dropped %d; want %d, %d", restored.Len(), restored.Dropped(), b.Len(), b.Dropped())
	}
	if again := snapBus(t, restored); !bytes.Equal(again, img) {
		t.Fatal("a restored bus encodes different snapshot bytes")
	}
	return b
}

func snapBus(t *testing.T, b *Bus) []byte {
	t.Helper()
	w := snap.NewWriter()
	b.Snap(snap.Encoder(w))
	img, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// FuzzEventLog drives any emission sequence through a bus of any RingSize
// from 1 up and any enable mask, and checks the packed log against the
// plain ring it replaced (checkLog). testdata/fuzz/FuzzEventLog holds seeds
// with int64 and int32 extremes, T running backwards, multi-bit, zero and
// masked classes, every Subsystem byte, and a window that wraps.
func FuzzEventLog(f *testing.F) {
	f.Add(uint32(3), uint32(0), []byte{1, 10, 2, 1, 0, 1, 0, 0, 1, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ring, mask uint32, data []byte) {
		checkLog(t, ring, Class(mask), data)
	})
}

// TestEventLogChunks runs a long random stream through windows small and
// large enough to span, empty and reuse many chunks. A window keeps no more
// chunks than its events fill at maxRecord bytes each, plus the tail.
func TestEventLogChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1<<20)
	rng.Read(data)
	for _, ring := range []uint32{0, 99, 9_999, 1 << 20} {
		b := checkLog(t, ring, 0, data)
		bound := 2 + b.Len()*maxRecord/(chunkBytes-maxRecord)
		if n := len(b.log.chunks); n > bound {
			t.Errorf("RingSize %d: %d events in %d chunks, want at most %d", ring+1, b.Len(), n, bound)
		}
	}
}

// TestEventLogGrowsWithUse pins that the window's memory follows the events
// emitted, not RingSize: a default bus that records 1,000 fault-shaped
// events allocates under 128 KB (a ring of 2^16 48-byte slots was 3 MiB).
func TestEventLogGrowsWithUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBus(Options{})
	for i := 0; i < 1000; i++ {
		b.Emit(Event{T: sim.Time(i) * 3500, Class: ClassFault, Sub: SubVM, Seg: 1, Page: int32(i % 700),
			Dur: 2100 * time.Microsecond, Aux: FaultSrcSwap})
	}
	runtime.ReadMemStats(&after)
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 128<<10 {
		t.Fatalf("a default bus holding 1,000 events allocated %d bytes, want under 128 KB", n)
	}
}
