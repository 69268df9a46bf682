package sim

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Millisecond)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Advance(0)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("Advance(0) changed time to %v", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Millisecond)
	// Advancing to the past is a no-op.
	c.AdvanceTo(Time(3 * time.Millisecond))
	if got := c.Now(); got != Time(10*time.Millisecond) {
		t.Fatalf("AdvanceTo(past) moved clock to %v", got)
	}
	c.AdvanceTo(Time(25 * time.Millisecond))
	if got := c.Now(); got != Time(25*time.Millisecond) {
		t.Fatalf("AdvanceTo(future) = %v, want 25ms", got)
	}
}

// TestChargeBooksWhatPassed: Charge and ChargeTo move the clock exactly as
// Advance and AdvanceTo do, free-running or attached, and the ledger gains
// the time that actually passed — nothing for a ChargeTo into the past, and
// nothing at all for a bare Advance.
func TestChargeBooksWhatPassed(t *testing.T) {
	for name, c := range map[string]*Clock{"free": {}, "attached": NewKernel().NewClock(0)} {
		plain := &Clock{}
		step := func(got, want Time) {
			t.Helper()
			if got != want || c.Now() != plain.Now() {
				t.Fatalf("%s: charge returned %v with the clock at %v; the plain advance returned %v with it at %v", name, got, c.Now(), want, plain.Now())
			}
		}
		step(c.Charge(CauseCompress, 5*time.Millisecond), plain.Advance(5*time.Millisecond))
		step(c.Advance(time.Millisecond), plain.Advance(time.Millisecond))
		step(c.ChargeTo(CauseDevice, Time(3*time.Millisecond)), plain.AdvanceTo(Time(3*time.Millisecond)))
		step(c.ChargeTo(CauseDevice, Time(10*time.Millisecond)), plain.AdvanceTo(Time(10*time.Millisecond)))
		step(c.Charge(CauseCompress, 0), plain.Advance(0))
		want := Ledger{CauseCompress: 5 * time.Millisecond, CauseDevice: 4 * time.Millisecond}
		if got := c.Spent(); got != want || got.Total() != 9*time.Millisecond {
			t.Errorf("%s: ledger %v (total %v), want %v", name, got, got.Total(), want)
		}
		if got := c.Spent().Sub(Ledger{CauseDevice: time.Millisecond}); got[CauseDevice] != 3*time.Millisecond || got[CauseCompress] != 5*time.Millisecond {
			t.Errorf("%s: Sub gave %v", name, got)
		}
	}
	for c := Cause(0); c < NumCauses; c++ {
		if c.String() == "" {
			t.Errorf("cause %d has no name", c)
		}
	}
}

// TestClockReferencePathIsOneCacheLine: the per-reference Advance reads now
// and kernel; the ledger must sit behind both, not between them.
func TestClockReferencePathIsOneCacheLine(t *testing.T) {
	var c Clock
	if now, kernel, spent := unsafe.Offsetof(c.now), unsafe.Offsetof(c.kernel), unsafe.Offsetof(c.spent); kernel+unsafe.Sizeof(c.kernel) > 64 || spent < kernel || spent < now {
		t.Errorf("now at %d, kernel at %d, ledger at %d: want the first two inside the first 64 bytes and the ledger after them", now, kernel, spent)
	}
}

func TestClockElapsed(t *testing.T) {
	var c Clock
	start := c.Now()
	c.Advance(7 * time.Second)
	if got := c.Elapsed(start); got != 7*time.Second {
		t.Fatalf("Elapsed = %v, want 7s", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(time.Second)
	b := a.Add(500 * time.Millisecond)
	if b != Time(1500*time.Millisecond) {
		t.Fatalf("Add = %v", b)
	}
	if d := b.Sub(a); d != 500*time.Millisecond {
		t.Fatalf("Sub = %v", d)
	}
	if s := Time(1500 * time.Millisecond).String(); s != "1.5s" {
		t.Fatalf("String = %q, want 1.5s", s)
	}
}

// Property: any sequence of non-negative advances keeps the clock monotone
// and equal to the running sum.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		var c Clock
		var sum Time
		prev := c.Now()
		for _, s := range steps {
			d := Duration(s) * time.Microsecond
			c.Advance(d)
			sum += Time(d)
			if c.Now() < prev || c.Now() != sum {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	m := DefaultCostModel()
	if m.CompressBW <= 0 || m.DecompressBW <= 0 {
		t.Fatal("default bandwidths must be positive")
	}
	if m.DecompressBW < m.CompressBW {
		t.Fatal("decompression should not be slower than compression for LZRW1-class codecs")
	}
}

func TestCompressCostScalesLinearly(t *testing.T) {
	m := DefaultCostModel()
	c1 := m.CompressCost(4096)
	c2 := m.CompressCost(8192)
	if c2 != 2*c1 {
		t.Fatalf("CompressCost not linear: %v vs %v", c1, c2)
	}
	// 4096 bytes at 1 MB/s is ~4.096ms.
	want := time.Duration(float64(4096) / 1e6 * float64(time.Second))
	if c1 != want {
		t.Fatalf("CompressCost(4096) = %v, want %v", c1, want)
	}
}

func TestCostEdgeCases(t *testing.T) {
	m := DefaultCostModel()
	if m.CompressCost(0) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
	if m.CompressCost(-5) != 0 {
		t.Fatal("negative bytes should cost nothing")
	}
	z := CostModel{}
	if z.CompressCost(100) != 0 || z.DecompressCost(100) != 0 {
		t.Fatal("zero-bandwidth model should charge nothing rather than divide by zero")
	}
}

func TestDecompressCostHalfOfCompress(t *testing.T) {
	m := DefaultCostModel()
	if got, want := m.DecompressCost(4096), m.CompressCost(4096)/2; got != want {
		t.Fatalf("DecompressCost = %v, want %v", got, want)
	}
}
