package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"compcache/internal/snap"
)

func TestPoolBasics(t *testing.T) {
	p := NewPool(4, 4096)
	if p.Total() != 4 || p.FreeCount() != 4 || p.PageSize() != 4096 {
		t.Fatalf("geometry: total %d free %d pagesize %d", p.Total(), p.FreeCount(), p.PageSize())
	}
	f, ok := p.Alloc(VM)
	if !ok || f == NoFrame {
		t.Fatal("Alloc failed on fresh pool")
	}
	if p.Owner(f) != VM || p.OwnedBy(VM) != 1 || p.FreeCount() != 3 {
		t.Fatalf("after alloc: owner %v, vm %d, free %d", p.Owner(f), p.OwnedBy(VM), p.FreeCount())
	}
	if len(p.Bytes(f)) != 4096 {
		t.Fatalf("Bytes len = %d", len(p.Bytes(f)))
	}
	p.Release(f)
	if p.FreeCount() != 4 || p.Owner(f) != Free {
		t.Fatal("release did not return frame")
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := NewPool(2, 512)
	if _, ok := p.Alloc(FS); !ok {
		t.Fatal("alloc 1 failed")
	}
	if _, ok := p.Alloc(CC); !ok {
		t.Fatal("alloc 2 failed")
	}
	if f, ok := p.Alloc(VM); ok {
		t.Fatalf("alloc on empty pool returned %d", f)
	}
}

func TestFrameBytesAreDistinct(t *testing.T) {
	p := NewPool(3, 64)
	a, _ := p.Alloc(VM)
	b, _ := p.Alloc(VM)
	copy(p.Bytes(a), "AAAA")
	copy(p.Bytes(b), "BBBB")
	if string(p.Bytes(a)[:4]) != "AAAA" || string(p.Bytes(b)[:4]) != "BBBB" {
		t.Fatal("frames share storage")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestPanics(t *testing.T) {
	p := NewPool(1, 64)
	f, _ := p.Alloc(VM)
	p.Release(f)
	mustPanic(t, "double release", func() { p.Release(f) })
	mustPanic(t, "alloc free owner", func() { p.Alloc(Free) })
	mustPanic(t, "bad frame id", func() { p.Bytes(99) })
	mustPanic(t, "bad geometry", func() { NewPool(0, 64) })
}

func TestOwnerString(t *testing.T) {
	cases := map[Owner]string{Free: "free", VM: "vm", CC: "cc", FS: "fs", Owner(9): "owner(9)"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}

// Random alloc/release churn must preserve conservation.
func TestConservationUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool(64, 128)
	var held []FrameID
	owners := []Owner{VM, CC, FS}
	for i := 0; i < 10000; i++ {
		switch rng.Intn(2) {
		case 0:
			if f, ok := p.Alloc(owners[rng.Intn(3)]); ok {
				held = append(held, f)
			}
		case 1:
			if len(held) > 0 {
				i := rng.Intn(len(held))
				p.Release(held[i])
				held = append(held[:i], held[i+1:]...)
			}
		}
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if p.FreeCount()+len(held) != p.Total() {
		t.Fatalf("free %d + held %d != total %d", p.FreeCount(), len(held), p.Total())
	}
}

func TestDeterministicAllocationOrder(t *testing.T) {
	p := NewPool(3, 64)
	a, _ := p.Alloc(VM)
	b, _ := p.Alloc(VM)
	c, _ := p.Alloc(VM)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("allocation order %d,%d,%d, want 0,1,2", a, b, c)
	}
}

// A lent frame is free for CC and Kernel, which never write frame bytes, and
// its bytes survive that; VM and FS may not have it until the loan closes.
func TestLoan(t *testing.T) {
	p := NewPool(2, 64)
	f, _ := p.Alloc(VM)
	other, _ := p.Alloc(VM)
	copy(p.Bytes(f), "page")
	data := p.Lend(f)
	if &data[0] != &p.Bytes(f)[0] || p.Owner(f) != Free || p.FreeCount() != 1 {
		t.Fatalf("Lend: bytes are a copy, or frame %d not released (owner %v)", f, p.Owner(f))
	}
	if err := p.CheckConservation(); err == nil {
		t.Error("CheckConservation passes with a loan left open")
	}
	mustPanic(t, "second loan", func() { p.Lend(other) })
	mustPanic(t, "lent frame to VM", func() { p.Alloc(VM) })
	mustPanic(t, "lent frame to FS", func() { p.Alloc(FS) })
	for _, o := range []Owner{CC, Kernel} {
		got, ok := p.Alloc(o)
		if !ok || got != f {
			t.Fatalf("Alloc(%v) = %d, %t; want the lent frame %d", o, got, ok, f)
		}
		p.Release(f)
		mustPanic(t, "lent frame to VM once "+o.String()+" has given it back", func() { p.Alloc(VM) })
	}
	if string(data[:4]) != "page" {
		t.Errorf("lent bytes changed to %q", data[:4])
	}
	p.EndLoan()
	mustPanic(t, "EndLoan without a loan", func() { p.EndLoan() })
	if got, ok := p.Alloc(VM); !ok || got != f {
		t.Fatalf("after EndLoan Alloc(VM) = %d, %t; want frame %d", got, ok, f)
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// made lists the chunks of p that have frame storage.
func made(p *Pool) []int {
	var cs []int
	for c, b := range p.data {
		if b != nil {
			cs = append(cs, c)
		}
	}
	return cs
}

// A pool makes frame storage a chunk at a time, when Alloc first hands out a
// frame in it: a fresh machine's pool costs the host its tables only.
func TestPoolMakesChunksOnFirstAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPool(2048, 4096)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= ChunkFrames*4096 {
		t.Errorf("NewPool(2048, 4096) allocated %d bytes, at least a chunk of frames", got)
	}
	if len(p.data) != 2048/ChunkFrames || len(made(p)) != 0 {
		t.Fatalf("fresh pool: %d chunks, %v made; want %d, none", len(p.data), made(p), 2048/ChunkFrames)
	}
	for i := 0; i < ChunkFrames; i++ {
		p.Alloc(VM)
	}
	if got := made(p); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after one chunk's worth of Allocs, chunks %v made, want [0]", got)
	}
	f, _ := p.Alloc(CC)
	if got := made(p); f != ChunkFrames || len(got) != 2 || got[1] != 1 {
		t.Fatalf("Alloc gave frame %d and left chunks %v made, want frame %d and [0 1]", f, got, ChunkFrames)
	}
	if len(p.Bytes(f)) != 4096 || len(p.Bytes(0)) != 4096 {
		t.Fatal("Bytes of a made chunk is not one page")
	}
	mustPanic(t, "Bytes of a frame never handed out", func() { p.Bytes(2047) })
	mustPanic(t, "Bytes of a negative id", func() { p.Bytes(-1) })

	// The last chunk holds what is left over, and its frames end the pool.
	q := NewPool(ChunkFrames+3, 64)
	for i := 0; i < ChunkFrames+3; i++ {
		q.Alloc(FS)
	}
	if n := len(q.data[1]); n != 3*64 {
		t.Fatalf("short last chunk is %d bytes, want %d", n, 3*64)
	}
	mustPanic(t, "Bytes past the last frame", func() { q.Bytes(ChunkFrames + 3) })
}

// snapBytes encodes p's snapshot.
func snapBytes(t *testing.T, p *Pool) []byte {
	t.Helper()
	w := snap.NewWriter()
	p.Snap(snap.Encoder(w))
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A chunk with no storage is written as the zeros a made one would hold, and
// a restore makes storage only for chunks that hold an owned frame or a
// byte that is not zero.
func TestSnapshotOfChunks(t *testing.T) {
	const n, size = 4*ChunkFrames + 5, 64
	// Both pools hold frame 0 (owned, "page"), frame 2*ChunkFrames+7
	// (released, its bytes kept) and frame 4*ChunkFrames (owned, zeros).
	// full has made every chunk; partial then loses the storage of chunks 1
	// and 3, which hold free frames of zeros, as a restore would leave them.
	partial, full := NewPool(n, size), NewPool(n, size)
	for i := 0; i < n; i++ {
		full.Alloc(VM)
	}
	for i := n - 1; i >= 0; i-- {
		full.Release(FrameID(i))
	}
	for _, p := range []*Pool{partial, full} {
		for i := 0; i <= 4*ChunkFrames; i++ {
			p.Alloc(VM)
		}
		copy(p.Bytes(0), "page")
		copy(p.Bytes(2*ChunkFrames+7), "kept")
		for i := 4*ChunkFrames - 1; i > 0; i-- {
			p.Release(FrameID(i))
		}
	}
	partial.data[1], partial.data[3] = nil, nil
	img := snapBytes(t, partial)
	if !bytes.Equal(img, snapBytes(t, full)) {
		t.Fatal("a pool with chunks left unmade snapshots unlike one with every chunk made")
	}

	restored := NewPool(n, size)
	r, err := snap.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	restored.Snap(snap.Decoder(r))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := made(restored), []int{0, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("restore made chunks %v, want %v", got, want)
	}
	if !bytes.Equal(snapBytes(t, restored), img) {
		t.Fatal("restored pool snapshots differently")
	}
}
