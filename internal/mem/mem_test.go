package mem

import (
	"math/rand"
	"testing"
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
