package policy

import (
	"errors"
	"testing"
	"time"

	"compcache/internal/mem"
	"compcache/internal/sim"
)

// fakeConsumer holds frames and releases them LIFO with a fixed oldest age.
type fakeConsumer struct {
	name     string
	pool     *mem.Pool
	frames   []mem.FrameID
	oldest   sim.Time
	releases int
	// holdOnRelease makes ReleaseOldest report success without freeing a
	// frame (models the VM page moving into the compression cache).
	holdOnRelease bool
	// refuse makes ReleaseOldest fail even when frames are held.
	refuse bool
}

func (f *fakeConsumer) Name() string { return f.name }

func (f *fakeConsumer) OldestAge() (sim.Time, bool) {
	if len(f.frames) == 0 {
		return 0, false
	}
	return f.oldest, true
}

func (f *fakeConsumer) ReleaseOldest() (bool, error) {
	if len(f.frames) == 0 || f.refuse {
		return false, nil
	}
	f.releases++
	if f.holdOnRelease {
		return true, nil
	}
	id := f.frames[len(f.frames)-1]
	f.frames = f.frames[:len(f.frames)-1]
	f.pool.Release(id)
	return true, nil
}

func (f *fakeConsumer) grab(t *testing.T, owner mem.Owner, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, ok := f.pool.Alloc(owner)
		if !ok {
			t.Fatalf("setup: pool exhausted for %s", f.name)
		}
		f.frames = append(f.frames, id)
	}
}

func setup(t *testing.T, frames int) (*Allocator, *mem.Pool, *sim.Clock) {
	t.Helper()
	var clock sim.Clock
	pool := mem.NewPool(frames, 4096)
	return NewAllocator(pool, &clock), pool, &clock
}

func TestAllocFromFreePool(t *testing.T) {
	a, pool, _ := setup(t, 2)
	id, err := a.AllocFrame(mem.VM)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Owner(id) != mem.VM {
		t.Fatalf("owner = %v", pool.Owner(id))
	}
}

func TestReclaimsOldestEffectiveAge(t *testing.T) {
	a, pool, clock := setup(t, 4)
	older := &fakeConsumer{name: "older", pool: pool, oldest: 0}
	newer := &fakeConsumer{name: "newer", pool: pool, oldest: sim.Time(5 * time.Second)}
	older.grab(t, mem.FS, 2)
	newer.grab(t, mem.VM, 2)
	a.Register(older, Neutral)
	a.Register(newer, Neutral)
	clock.Advance(10 * time.Second)

	a.AllocFrame(mem.VM)
	if older.releases != 1 || newer.releases != 0 {
		t.Fatalf("releases: older %d newer %d", older.releases, newer.releases)
	}
}

func TestBiasOverridesRawAge(t *testing.T) {
	a, pool, clock := setup(t, 4)
	// "vm" is older in raw terms but "fs" carries a +20s offset, so fs must
	// be reclaimed first (the paper's file-cache penalty).
	vm := &fakeConsumer{name: "vm", pool: pool, oldest: 0}
	fsc := &fakeConsumer{name: "fs", pool: pool, oldest: sim.Time(9 * time.Second)}
	vm.grab(t, mem.VM, 2)
	fsc.grab(t, mem.FS, 2)
	a.Register(vm, Neutral)
	a.Register(fsc, Bias{Scale: 1, Offset: 20 * time.Second})
	clock.Advance(10 * time.Second)

	a.AllocFrame(mem.VM)
	if fsc.releases != 1 || vm.releases != 0 {
		t.Fatalf("releases: fs %d vm %d", fsc.releases, vm.releases)
	}
}

func TestScaleBias(t *testing.T) {
	a, pool, clock := setup(t, 4)
	// cc's items are much older, but scale 0.1 shrinks its effective age
	// below vm's.
	cc := &fakeConsumer{name: "cc", pool: pool, oldest: 0}                         // raw age 10s
	vm := &fakeConsumer{name: "vm", pool: pool, oldest: sim.Time(8 * time.Second)} // raw age 2s
	cc.grab(t, mem.CC, 2)
	vm.grab(t, mem.VM, 2)
	a.Register(cc, Bias{Scale: 0.1})
	a.Register(vm, Neutral)
	clock.Advance(10 * time.Second)

	a.AllocFrame(mem.VM)
	if vm.releases != 1 || cc.releases != 0 {
		t.Fatalf("releases: vm %d cc %d", vm.releases, cc.releases)
	}
}

func TestIteratesWhenReleaseFreesNoFrame(t *testing.T) {
	a, pool, clock := setup(t, 4)
	// "vm" is older but its releases free no frames (pages migrate to the
	// compression cache); the allocator must keep iterating and eventually
	// take from "fs".
	vm := &fakeConsumer{name: "vm", pool: pool, oldest: 0, holdOnRelease: true}
	fsc := &fakeConsumer{name: "fs", pool: pool, oldest: sim.Time(9 * time.Second)}
	vm.grab(t, mem.VM, 2)
	fsc.grab(t, mem.FS, 2)
	a.Register(vm, Neutral)
	a.Register(fsc, Neutral)
	clock.Advance(10 * time.Second)

	id, err := a.AllocFrame(mem.VM)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Owner(id) != mem.VM {
		t.Fatal("allocation failed")
	}
	if vm.releases == 0 || fsc.releases == 0 {
		t.Fatalf("releases: vm %d fs %d", vm.releases, fsc.releases)
	}
}

func TestFallsBackWhenChosenConsumerRefuses(t *testing.T) {
	a, pool, clock := setup(t, 4)
	stuck := &fakeConsumer{name: "stuck", pool: pool, oldest: 0, refuse: true}
	ok := &fakeConsumer{name: "ok", pool: pool, oldest: sim.Time(9 * time.Second)}
	stuck.grab(t, mem.CC, 2)
	ok.grab(t, mem.FS, 2)
	a.Register(stuck, Neutral)
	a.Register(ok, Neutral)
	clock.Advance(10 * time.Second)

	a.AllocFrame(mem.VM)
	if ok.releases != 1 {
		t.Fatalf("fallback consumer releases = %d", ok.releases)
	}
}

func TestOOMReturnsTypedError(t *testing.T) {
	a, pool, _ := setup(t, 1)
	if _, ok := pool.Alloc(mem.Kernel); !ok {
		t.Fatal("setup alloc failed")
	}
	_, err := a.AllocFrame(mem.VM)
	if err == nil {
		t.Fatal("AllocFrame with no consumers succeeded")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("error %v is not ErrOutOfMemory", err)
	}
}

func TestDefaultBiasesShape(t *testing.T) {
	b := DefaultBiases()
	if b.FS.Offset <= b.VM.Offset {
		t.Fatal("file cache must be penalized relative to VM")
	}
	if b.CC.Offset >= b.VM.Offset || b.CC.Scale >= b.VM.Scale {
		t.Fatal("compressed pages must be favored relative to VM")
	}
}

func TestRegisterZeroScaleDefaultsToNeutral(t *testing.T) {
	a, pool, clock := setup(t, 2)
	c := &fakeConsumer{name: "c", pool: pool, oldest: 0}
	c.grab(t, mem.FS, 2)
	a.Register(c, Bias{}) // zero scale would zero all ages
	clock.Advance(time.Second)
	a.AllocFrame(mem.VM)
	if c.releases != 1 {
		t.Fatal("zero-value bias broke reclamation")
	}
}

func TestFreeOne(t *testing.T) {
	a, pool, clock := setup(t, 4)
	older := &fakeConsumer{name: "older", pool: pool, oldest: 0}
	newer := &fakeConsumer{name: "newer", pool: pool, oldest: sim.Time(5 * time.Second)}
	older.grab(t, mem.FS, 2)
	newer.grab(t, mem.VM, 2)
	a.Register(older, Neutral)
	a.Register(newer, Neutral)
	clock.Advance(10 * time.Second)

	if ok, err := a.FreeOne(); err != nil || !ok {
		t.Fatalf("FreeOne: ok=%v err=%v", ok, err)
	}
	if older.releases != 1 || newer.releases != 0 {
		t.Fatalf("releases: older %d newer %d", older.releases, newer.releases)
	}
	if pool.FreeCount() != 1 {
		t.Fatalf("free = %d", pool.FreeCount())
	}
}

func TestFreeOneSkipsRefusers(t *testing.T) {
	a, pool, clock := setup(t, 4)
	stuck := &fakeConsumer{name: "stuck", pool: pool, oldest: 0, refuse: true}
	ok := &fakeConsumer{name: "ok", pool: pool, oldest: sim.Time(9 * time.Second)}
	stuck.grab(t, mem.CC, 2)
	ok.grab(t, mem.FS, 2)
	a.Register(stuck, Neutral)
	a.Register(ok, Neutral)
	clock.Advance(10 * time.Second)
	if ok, err := a.FreeOne(); err != nil || !ok {
		t.Fatalf("FreeOne: ok=%v err=%v", ok, err)
	}
	if ok.releases != 1 {
		t.Fatalf("releases = %d", ok.releases)
	}
}

func TestFreeOneEmpty(t *testing.T) {
	a, _, _ := setup(t, 2)
	if ok, err := a.FreeOne(); err != nil || ok {
		t.Fatalf("FreeOne with no consumers: ok=%v err=%v", ok, err)
	}
}
