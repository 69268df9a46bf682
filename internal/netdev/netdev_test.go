package netdev

import (
	"errors"
	"math"
	"testing"
	"time"

	"compcache/internal/fault"
	"compcache/internal/obs"
	"compcache/internal/sim"
)

func newNet(t *testing.T, p Params) (*Net, *sim.Clock) {
	t.Helper()
	var clock sim.Clock
	n, err := New(p, &clock)
	if err != nil {
		t.Fatal(err)
	}
	return n, &clock
}

func TestValidate(t *testing.T) {
	for _, p := range []Params{Ethernet10(), Wireless2()} {
		if err := p.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	bad := []Params{
		{BytesPerSec: 0, PacketBytes: 1024},
		{BytesPerSec: 1e6, PacketBytes: 0},
		{BytesPerSec: 1e6, PacketBytes: 1024, RTT: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(Params{}, &sim.Clock{}); err == nil {
		t.Error("New accepted invalid params")
	}
}

func TestTransferRoundsToPackets(t *testing.T) {
	p := Params{BytesPerSec: 1e6, PacketBytes: 1024}
	if p.TransferTime(1) != p.TransferTime(1024) {
		t.Error("1 byte should cost a packet")
	}
	if p.TransferTime(1025) != p.TransferTime(2048) {
		t.Error("1025 bytes should cost two packets")
	}
	if p.TransferTime(0) != 0 {
		t.Error("zero transfer should be free")
	}
}

func TestReadCost(t *testing.T) {
	p := Ethernet10()
	n, clock := newNet(t, p)
	n.Read(0, 4096)
	want := p.PerOp + p.RTT + p.TransferTime(4096)
	if got := time.Duration(clock.Now()); got != want {
		t.Fatalf("read took %v, want %v", got, want)
	}
	st := n.Stats()
	if st.Reads != 1 || st.BytesRead != 4096 || st.Seeks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoSequentialDiscount(t *testing.T) {
	// Unlike a disk, back-to-back sequential reads cost the same as random
	// ones: the RTT is paid every time.
	p := Ethernet10()
	n, clock := newNet(t, p)
	n.Read(0, 4096)
	t0 := clock.Now()
	n.Read(4096, 4096)
	if got := clock.Elapsed(t0); got != p.PerOp+p.RTT+p.TransferTime(4096) {
		t.Fatalf("sequential read took %v", got)
	}
}

func TestAsyncQueue(t *testing.T) {
	n, clock := newNet(t, Wireless2())
	done, err := n.WriteAsync(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 0 {
		t.Fatal("async send advanced the clock")
	}
	// A read queues behind the pending send.
	n.Read(0, 4096)
	if clock.Now() <= done {
		t.Fatal("read did not queue behind the async send")
	}
	n.Drain()
	if sim.Time(0) >= n.BusyUntil() {
		t.Fatal("busy timeline not advanced")
	}
}

func TestWirelessSlowerThanEthernet(t *testing.T) {
	e, eClock := newNet(t, Ethernet10())
	w, wClock := newNet(t, Wireless2())
	e.Read(0, 4096)
	w.Read(0, 4096)
	if wClock.Now() <= eClock.Now() {
		t.Fatal("wireless should be slower than Ethernet")
	}
}

func TestGranularity(t *testing.T) {
	n, _ := newNet(t, Ethernet10())
	if n.Granularity() != 1024 {
		t.Fatalf("granularity = %d", n.Granularity())
	}
	if n.Params().PacketBytes != 1024 {
		t.Fatal("params accessor broken")
	}
}

func TestSyncWriteCost(t *testing.T) {
	p := Wireless2()
	n, clock := newNet(t, p)
	n.Write(0, 4096)
	want := p.PerOp + p.RTT + p.TransferTime(4096)
	if got := time.Duration(clock.Now()); got != want {
		t.Fatalf("write took %v, want %v", got, want)
	}
	if n.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
}

func TestValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"minimal valid", Params{BytesPerSec: 1, PacketBytes: 1}, true},
		{"NaN bandwidth", Params{BytesPerSec: math.NaN(), PacketBytes: 1024}, false},
		{"Inf bandwidth", Params{BytesPerSec: math.Inf(1), PacketBytes: 1024}, false},
		{"negative packet", Params{BytesPerSec: 1e6, PacketBytes: -1}, false},
		{"packet at cap", Params{BytesPerSec: 1e6, PacketBytes: 1 << 30}, true},
		{"packet overflow-adjacent", Params{BytesPerSec: 1e6, PacketBytes: math.MaxInt}, false},
		{"negative retries", Params{BytesPerSec: 1e6, PacketBytes: 1024, Retries: -1}, false},
		{"negative retry base", Params{BytesPerSec: 1e6, PacketBytes: 1024, RetryBase: -time.Millisecond}, false},
		{"negative retry max", Params{BytesPerSec: 1e6, PacketBytes: 1024, RetryMax: -time.Millisecond}, false},
		{"base above max", Params{BytesPerSec: 1e6, PacketBytes: 1024, RetryBase: time.Second, RetryMax: time.Millisecond}, false},
		{"uncapped backoff", Params{BytesPerSec: 1e6, PacketBytes: 1024, Retries: 2, RetryBase: time.Millisecond}, true},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// injectorOn attaches an always-fail write injector to a fresh net device.
func injectorOn(t *testing.T, p Params, cfg fault.Config) (*Net, *sim.Clock) {
	t.Helper()
	n, clock := newNet(t, p)
	in, err := fault.New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	n.SetFaultInjector(in)
	return n, clock
}

func TestRetryExhaustionCostsBackoffInVirtualTime(t *testing.T) {
	p := Params{
		BytesPerSec: 1e6,
		PacketBytes: 1024,
		RTT:         time.Millisecond,
		Retries:     3,
		RetryBase:   2 * time.Millisecond,
		RetryMax:    5 * time.Millisecond,
	}
	n, clock := injectorOn(t, p, fault.Config{Seed: 1, WriteErrorRate: 1})
	err := n.Write(0, 4096)
	if err == nil {
		t.Fatal("rate-1 write errors exhausted retries without failing")
	}
	svc := p.PerOp + p.RTT + p.TransferTime(4096)
	// 4 attempts (1 + 3 retries) plus capped exponential backoff 2, 4, 5 ms.
	want := 4*svc + 2*time.Millisecond + 4*time.Millisecond + 5*time.Millisecond
	if got := time.Duration(clock.Now()); got != want {
		t.Fatalf("failed write took %v, want %v", got, want)
	}
	if got := n.Stats().Retries; got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	// With a 50% write error rate and 8 retries, some writes need retries
	// and essentially all eventually succeed; the test asserts the
	// deterministic aggregate.
	p := Ethernet10()
	p.Retries = 8
	n, _ := injectorOn(t, p, fault.Config{Seed: 3, WriteErrorRate: 0.5})
	fails := 0
	for i := 0; i < 50; i++ {
		if err := n.Write(int64(i)*4096, 4096); err != nil {
			fails++
		}
	}
	st := n.Stats()
	if fails != 0 {
		t.Fatalf("%d writes failed despite 8 retries at 50%% error rate", fails)
	}
	if st.Retries == 0 {
		t.Fatal("no retries recorded at 50% error rate")
	}
}

func TestAsyncRetryBackoffDelaysQueueNotCaller(t *testing.T) {
	p := Params{
		BytesPerSec: 1e6,
		PacketBytes: 1024,
		Retries:     2,
		RetryBase:   3 * time.Millisecond,
	}
	n, clock := injectorOn(t, p, fault.Config{Seed: 1, WriteErrorRate: 1})
	_, err := n.WriteAsync(0, 1024)
	if err == nil {
		t.Fatal("rate-1 async write did not fail")
	}
	if clock.Now() != 0 {
		t.Fatalf("async retry advanced the caller's clock to %v", clock.Now())
	}
	svc := p.PerOp + p.RTT + p.TransferTime(1024)
	want := sim.Time(0).Add(3*svc + 3*time.Millisecond + 6*time.Millisecond)
	if n.BusyUntil() != want {
		t.Fatalf("BusyUntil = %v, want %v (3 attempts + backoffs on the queue timeline)", n.BusyUntil(), want)
	}
}

func TestCrashOnFirstWriteTearsAtPacketsAndNeverRetries(t *testing.T) {
	p := Ethernet10() // three retries: none may be spent on a dead machine
	for seed := int64(1); seed <= 8; seed++ {
		n, clock := injectorOn(t, p, fault.Config{Seed: seed, CrashAtWrite: 1})
		bus := obs.NewBus(obs.Options{})
		n.SetObserver(bus)
		err := n.Write(0, 4096)
		var ce *fault.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("seed %d: first write returned %v, want a *fault.CrashError", seed, err)
		}
		if ce.Survived%p.PacketBytes != 0 || ce.Survived < 0 || ce.Survived > 4096 {
			t.Errorf("seed %d: %d bytes survived, want whole %d-byte packets of 4096", seed, ce.Survived, p.PacketBytes)
		}
		if got := n.Stats().Retries; got != 0 {
			t.Errorf("seed %d: %d retries after the crash", seed, got)
		}
		for _, ev := range bus.Events() {
			if ev.Class == obs.ClassRetry {
				t.Errorf("seed %d: retry event emitted after the crash: %+v", seed, ev)
			}
		}
		if want := p.PerOp + p.RTT + p.TransferTime(4096); time.Duration(clock.Now()) != want {
			t.Errorf("seed %d: crashed write took %v, want one attempt's %v", seed, time.Duration(clock.Now()), want)
		}
	}
}

func TestFaultFreeRetryKnobsChangeNothing(t *testing.T) {
	with := Ethernet10()
	without := with
	without.Retries, without.RetryBase, without.RetryMax = 0, 0, 0
	a, aClock := newNet(t, with)
	b, bClock := newNet(t, without)
	for i := 0; i < 20; i++ {
		a.Read(int64(i)*4096, 4096)
		b.Read(int64(i)*4096, 4096)
		a.Write(int64(i)*8192, 2048)
		b.Write(int64(i)*8192, 2048)
	}
	if aClock.Now() != bClock.Now() {
		t.Fatal("retry knobs changed fault-free timing")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("retry knobs changed fault-free stats: %+v vs %+v", a.Stats(), b.Stats())
	}
}
