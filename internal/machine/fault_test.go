package machine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"compcache/internal/fault"
	"compcache/internal/sim"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// faultWindow delays injection far past any setup phase, so tests can stage
// exact machine state fault-free and then step into the injection window.
const faultWindow = time.Hour

// stageCompressedPage builds a CC machine with the given fault config,
// thrashes a segment until some page sits compressed in the cache, and
// returns the space and that page's index. Injection has not started yet.
func stageCompressedPage(t *testing.T, fc fault.Config, cleanReserve int) (*Machine, *Space, int32) {
	t.Helper()
	fc.ActiveAfter = faultWindow
	cfg := Default(mb / 4).WithCC().WithFaults(fc)
	// cleanReserve 1 effectively disables the background cleaner, so cache
	// entries stay dirty (the only copy of their page).
	cfg.CC.CleanReserve = cleanReserve
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", mb)
	fillCompressible(s)
	if err := m.Err(); err != nil {
		t.Fatalf("setup phase saw an error: %v", err)
	}
	for i := int32(0); i < s.Pages(); i++ {
		if s.seg.Page(i).State == vm.Compressed {
			return m, s, i
		}
	}
	t.Fatal("no page ended up compressed in the cache")
	return nil, nil, 0
}

// TestCorruptCleanEntryRecoversFromSwap is the graceful-degradation
// acceptance test: a corrupted compression-cache fragment whose clean copy
// exists on the backing store is detected by its checksum, dropped, and
// re-fetched from swap — correct contents, no error, only virtual-time
// costs.
func TestCorruptCleanEntryRecoversFromSwap(t *testing.T) {
	m, s, page := stageCompressedPage(t, fault.Config{Seed: 1, CacheCorruptionRate: 1}, 0)

	// Flush every dirty cache entry to the backing store so the target
	// entry is clean and a swap copy exists.
	for {
		n, err := m.CC.Clean()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	m.Drain()

	// Step into the injection window: the next cache read is corrupted.
	m.Clock.Charge(sim.CauseIdle, faultWindow)
	reads := m.Device.Stats().Reads
	before := m.Clock.Now()
	if got := s.ReadWord(int64(page) * 4096); got != uint64(page)+1 {
		t.Fatalf("recovered page read %d, want %d", got, uint64(page)+1)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("recovery surfaced an error: %v", err)
	}
	f := m.Faults()
	if f.InjectedCorruptions == 0 || f.CorruptionsDetected == 0 {
		t.Fatalf("corruption not injected or not detected: %+v", f)
	}
	if f.Recoveries == 0 {
		t.Fatalf("no recovery recorded: %+v", f)
	}
	if m.Device.Stats().Reads == reads {
		t.Fatal("recovery did not re-fetch from the backing store")
	}
	if m.Clock.Now() == before {
		t.Fatal("recovery was free: the swap re-fetch must cost virtual time")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptOnlyCopyYieldsTypedError: when the corrupted cache entry is
// dirty — the only copy of the page — there is nothing to fall back to. The
// machine must report a typed unrecoverable error, never panic, and stick
// the error so later operations are no-ops.
func TestCorruptOnlyCopyYieldsTypedError(t *testing.T) {
	m, s, page := stageCompressedPage(t, fault.Config{Seed: 1, CacheCorruptionRate: 1}, 1)

	// Find a compressed page whose entry is dirty — the only copy of the
	// page (frame pressure cleans some entries even without the cleaner).
	page = -1
	for i := int32(0); i < s.Pages(); i++ {
		if s.seg.Page(i).State != vm.Compressed {
			continue
		}
		if _, _, dirty, ok := m.CC.Fault(s.seg.Page(i).Key); ok && dirty {
			page = i
			break
		}
	}
	if page < 0 {
		t.Fatal("no dirty cache entry to corrupt")
	}
	m.Clock.Charge(sim.CauseIdle, faultWindow)
	s.ReadWord(int64(page) * 4096)
	err := m.Err()
	if err == nil {
		t.Fatal("corrupt only-copy read reported no error")
	}
	if !fault.IsUnrecoverable(err) {
		t.Fatalf("error is not typed unrecoverable: %v", err)
	}
	var ce *fault.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("unrecoverable error does not wrap the corruption detail: %v", err)
	}

	// The error sticks: every later access through any of the six Space
	// accessors is a no-op — no reference counted, no virtual time — and
	// reads see zero, instead of cascading.
	refs, now := m.VM.Stats().Refs, m.Clock.Now()
	buf := []byte{1, 2, 3}
	for name, access := range map[string]func(){
		"Touch":     func() { s.Touch(0, true) },
		"Pin":       func() { s.Pin(1) },
		"Read":      func() { s.Read(4090, buf) }, // spans a page boundary
		"Write":     func() { s.Write(0, buf) },
		"WriteWord": func() { s.WriteWord(0, 42) },
		"ReadWord": func() {
			if got := s.ReadWord(0); got != 0 {
				t.Errorf("post-failure ReadWord returned %d, want sticky-error zero", got)
			}
		},
	} {
		access()
		if got := m.VM.Stats().Refs; got != refs {
			t.Errorf("post-failure %s counted %d references", name, got-refs)
		}
		if got := m.Clock.Now(); got != now {
			t.Errorf("post-failure %s moved the clock by %v", name, got-now)
		}
		if m.Err() != err {
			t.Fatalf("after %s: first error did not stick", name)
		}
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Errorf("post-failure Read filled the buffer: %v", buf)
	}
}

// TestSwapCorruptionIsUnrecoverable: a bit flip in a fragment read from the
// backing store has no lower level to fall back to.
func TestSwapCorruptionIsUnrecoverable(t *testing.T) {
	m, s, page := stageCompressedPage(t, fault.Config{Seed: 1, SwapCorruptionRate: 1}, 0)

	// Push the compressed entry out of the cache so the next read comes
	// from the backing store.
	if err := m.EvictAll(); err != nil {
		t.Fatal(err)
	}
	m.Clock.Charge(sim.CauseIdle, faultWindow)
	s.ReadWord(int64(page) * 4096)
	if err := m.Err(); !fault.IsUnrecoverable(err) {
		t.Fatalf("swap corruption produced %v, want typed unrecoverable error", err)
	}
}

// TestFaultFreeInjectorChangesNothing: attaching a zero-rate injector must
// not perturb the simulation — same virtual time, same stats.
func TestFaultFreeInjectorChangesNothing(t *testing.T) {
	run := func(withInjector bool) (time.Duration, uint64) {
		cfg := Default(mb / 4).WithCC()
		if withInjector {
			cfg = cfg.WithFaults(fault.Config{Seed: 99})
		}
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", mb)
		fillCompressible(s)
		for p := int32(0); p < s.Pages(); p += 3 {
			s.ReadWord(int64(p) * 4096)
		}
		m.Drain()
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed(), m.VM.Stats().Faults
	}
	t0, f0 := run(false)
	t1, f1 := run(true)
	if t0 != t1 || f0 != f1 {
		t.Fatalf("zero-rate injector changed the run: %v/%d vs %v/%d", t0, f0, t1, f1)
	}
}

// TestBaselineStoreFailureIsTyped pins what a machine without a compression
// cache reports when its backing store fails: the reason text, the typed
// unrecoverable error, and the device error reachable through it.
func TestBaselineStoreFailureIsTyped(t *testing.T) {
	stores := []struct {
		name string
		cfg  Config
	}{
		{"direct", Default(mb)},
		{"lfs", Default(mb).WithLFS(swap.LFSConfig{SegmentBytes: 16 * 4096})},
	}
	failures := []struct {
		name   string
		faults fault.Config
		lose   func(m *Machine, s *Space, pg *vm.Page) // what the workload does inside the window
		reason string
		devOp  string // "" when no device error is behind the loss
	}{
		{name: "read", faults: fault.Config{Seed: 1, ReadErrorRate: 1},
			lose:   func(_ *Machine, s *Space, pg *vm.Page) { s.ReadWord(int64(pg.Key.Page) * 4096) },
			reason: "backing-store read failed", devOp: "read"},
		{name: "write", faults: fault.Config{Seed: 1, WriteErrorRate: 1},
			lose:   func(_ *Machine, s *Space, _ *vm.Page) { fillCompressible(s) },
			reason: "backing-store write failed for the only copy", devOp: "write"},
		{name: "no-copy", faults: fault.Config{Seed: 1},
			lose: func(m *Machine, s *Space, pg *vm.Page) {
				m.Dirtied(pg) // every copy below memory goes stale, and the page is not in memory
				s.ReadWord(int64(pg.Key.Page) * 4096)
			},
			reason: "page in state swapped has no backing copy"},
	}
	for _, st := range stores {
		for _, f := range failures {
			t.Run(st.name+"/"+f.name, func(t *testing.T) {
				f.faults.ActiveAfter = faultWindow
				m := newMachine(t, st.cfg.WithFaults(f.faults))
				s := m.NewSegment("heap", 4*mb)
				fillCompressible(s)
				if err := m.Err(); err != nil {
					t.Fatalf("setup phase saw an error: %v", err)
				}
				pg := s.seg.Page(0) // written first: long out of memory and of any store buffer
				if pg.State != vm.Swapped {
					t.Fatalf("page 0 is %v, want it swapped out", pg.State)
				}
				m.Clock.Charge(sim.CauseIdle, faultWindow)
				f.lose(m, s, pg)

				err := m.Err()
				var ue *fault.UnrecoverableError
				if !errors.As(err, &ue) || !fault.IsUnrecoverable(err) {
					t.Fatalf("got %v, want *fault.UnrecoverableError", err)
				}
				if ue.Reason != f.reason {
					t.Fatalf("Reason = %q, want %q", ue.Reason, f.reason)
				}
				var de *fault.DeviceError
				if f.devOp == "" {
					if ue.Err != nil {
						t.Fatalf("a page with no copy reports a cause: %v", ue.Err)
					}
					return
				}
				if !errors.As(err, &de) || de.Op != f.devOp {
					t.Fatalf("no injected device %s error behind %v", f.devOp, err)
				}
				if !errors.Is(err, de) {
					t.Fatalf("errors.Is does not reach the device error through %v", err)
				}
				if !strings.HasSuffix(err.Error(), " unrecoverable ("+f.reason+"): "+de.Error()) {
					t.Fatalf("Error() = %q, want the reason and then the device error, nothing between", err.Error())
				}
			})
		}
	}
}
