package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"compcache/internal/sim"
	"compcache/internal/stats"
)

// The trace hook is re-entrant: workload.Multi runs other processes inside
// it, and they touch pages and advance the clock before the hook returns.
// Whatever Touch knew before the hook — the time Advance returned, which page
// was the LRU tail, whether its own page was resident — may be stale after
// it. Each stream below is driven through such a hook, alternating Touch
// with word accesses (access's copy of the same bookkeeping); after every
// reference the list must be consistent and the referenced page must be the
// most recently used, stamped with the current time.
func TestReentrantTraceHook(t *testing.T) {
	const npages = 16
	streams := map[string]func(i int, rng *rand.Rand) int32{
		"same-page": func(int, *rand.Rand) int32 { return 3 },
		"ping-pong": func(i int, _ *rand.Rand) int32 { return int32(3 + i&1) },
		"random":    func(_ int, rng *rand.Rand) int32 { return int32(rng.Intn(npages)) },
	}
	// With 12 frames the hook's touches only reorder the list; with 3 they
	// also evict the page being referenced while its Touch is in progress.
	for _, frames := range []int{12, 3} {
		for name, next := range streams {
			t.Run(fmt.Sprintf("%s/%dframes", name, frames), func(t *testing.T) {
				v, _, pool, clock := newTestVM(t, frames)
				s := v.NewSegment("heap", npages)
				rng := rand.New(rand.NewSource(5))
				inHook := false
				v.SetTraceHook(func(_, page int32, _ bool) {
					if inHook {
						return
					}
					inHook = true
					defer func() { inHook = false }()
					// Another process's quantum: a few references elsewhere
					// (sometimes none, so the tail hit is reached as well)
					// and some time spent off the VM.
					for k := rng.Intn(3); k > 0; k-- {
						other := (page + 1 + int32(rng.Intn(npages-1))) % npages
						touch(t, v, s, other, rng.Intn(2) == 0)
					}
					clock.Advance(time.Duration(rng.Intn(3)) * time.Microsecond)
				})
				for i := 0; i < 2000; i++ {
					n := next(i, rng)
					// Every other reference goes through access's body.
					p := s.Page(n)
					switch {
					case i%2 == 0:
						touch(t, v, s, n, i%7 == 0)
					case i%7 == 0:
						writeWord(t, v, s, int64(n)*4096+8, uint64(i))
					default:
						readWord(t, v, s, int64(n)*4096+8)
					}
					if p != v.lruTail {
						t.Fatalf("ref %d: page %d is not the LRU tail after its own reference", i, n)
					}
					if p.LastUse != clock.Now() {
						t.Fatalf("ref %d: page %d LastUse = %v, clock reads %v", i, n, p.LastUse, clock.Now())
					}
					if err := v.CheckLRU(); err != nil {
						t.Fatalf("ref %d: %v", i, err)
					}
				}
				if err := pool.CheckConservation(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// lruModel is the reference the VM's linked list is checked against: the
// resident pages in a slice, oldest first, with everything else the VM
// derives from a reference stream (states, flags, counters, virtual time)
// recomputed from the cost model.
type lruModel struct {
	frames int
	cost   sim.CostModel
	now    sim.Time
	order  []int32 // resident pages, least recently used first
	pages  []modelPage
	st     stats.VM

	pageOuts, dirtied int
}

type modelPage struct {
	state                              PageState
	dirty, everWritten, swapValid, pin bool
	lastUse                            sim.Time
}

func (m *lruModel) unlink(n int32) {
	for i, q := range m.order {
		if q == n {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
	panic("lruModel: page not resident")
}

func (m *lruModel) touch(n int32, write bool) {
	p := &m.pages[n]
	m.st.Refs++
	m.now = m.now.Add(m.cost.MemRef)
	if p.state == Resident {
		m.unlink(n)
	} else {
		m.st.Faults++
		m.now = m.now.Add(m.cost.FaultOverhead)
		if len(m.order) == m.frames {
			m.releaseOldest()
		}
		if p.state == Untouched {
			m.st.ColdFaults++
			p.swapValid = false
		} else {
			m.st.SwapIns++
			p.swapValid = true
		}
		p.dirty = false
		p.state = Resident
	}
	m.order = append(m.order, n)
	p.lastUse = m.now
	if write {
		p.everWritten = true
		if !p.dirty {
			p.dirty, p.swapValid = true, false
			m.dirtied++
		}
	}
}

func (m *lruModel) releaseOldest() bool {
	for _, n := range m.order {
		if !m.pages[n].pin {
			m.evict(n)
			return true
		}
		m.st.PinnedSkips++
	}
	return false
}

func (m *lruModel) evict(n int32) {
	p := &m.pages[n]
	m.st.Evictions++
	if p.dirty {
		m.st.WriteBacks++
	}
	m.unlink(n)
	if !p.dirty && !p.everWritten && !p.swapValid {
		p.state = Untouched
		return
	}
	m.pageOuts++
	p.state, p.dirty, p.swapValid = Swapped, false, true
}

// Seeded random Touch/Read/Write/ReadWord/WriteWord/Pin/Unpin/Evict/
// ReleaseOldest streams, with runs of repeated hits on one page so the tail
// fast path is taken, compared against lruModel after every operation: the
// whole resident order (which is the victim order), OldestAge, every page's
// state and flags, the counters, the clock, and the bytes read back. The
// reference bookkeeping has two bodies, Touch's and access's (a byte or word
// access within one page); a byte access that spans pages goes through
// Touch. The stream takes all of them, and zero-length byte accesses, which
// are no reference at all, at offsets inside and past the segment.
func TestLRUAgainstModel(t *testing.T) {
	const (
		npages = 24
		frames = 8
		ps     = 4096
	)
	for seed := int64(1); seed <= 4; seed++ {
		v, fp, pool, clock := newTestVM(t, frames)
		s := v.NewSegment("heap", npages)
		m := &lruModel{frames: frames, cost: sim.DefaultCostModel(), pages: make([]modelPage, npages)}
		shadow := make([]byte, npages*ps)
		rng := rand.New(rand.NewSource(seed))
		pinned := 0
		last := int32(0)

		check := func(step int, op string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
			}
			if got := v.Stats(); got != m.st {
				fail("stats = %+v, model %+v", got, m.st)
			}
			if clock.Now() != m.now {
				fail("clock = %v, model %v", clock.Now(), m.now)
			}
			if v.ResidentPages() != len(m.order) {
				fail("resident = %d, model %d", v.ResidentPages(), len(m.order))
			}
			if fp.pageOuts != m.pageOuts || fp.dirtied != m.dirtied {
				fail("pager saw %d page-outs, %d dirtied; model %d, %d", fp.pageOuts, fp.dirtied, m.pageOuts, m.dirtied)
			}
			age, ok := v.OldestAge()
			if ok != (len(m.order) > 0) || (ok && age != m.pages[m.order[0]].lastUse) {
				fail("OldestAge = %v, %v; model order %v", age, ok, m.order)
			}
			p := v.lruHead
			for i, n := range m.order {
				if p == nil || p.Key.Page != n {
					fail("resident order differs at position %d: model %v", i, m.order)
				}
				p = p.next
			}
			if p != nil {
				fail("resident list longer than model %v", m.order)
			}
			for n := range m.pages {
				got, want := s.Page(int32(n)), m.pages[n]
				if got.State != want.state || got.Dirty != want.dirty || got.EverWritten != want.everWritten ||
					got.SwapValid != want.swapValid || got.Pinned != want.pin {
					fail("page %d = %+v, model %+v", n, *got, want)
				}
				if want.state == Resident && got.LastUse != want.lastUse {
					fail("page %d LastUse = %v, model %v", n, got.LastUse, want.lastUse)
				}
			}
			if err := v.CheckLRU(); err != nil {
				fail("%v", err)
			}
		}

		for step := 0; step < 6000; step++ {
			n := int32(rng.Intn(npages))
			if rng.Intn(3) == 0 {
				n = last // a run of hits on the most recently used page
			}
			write := rng.Intn(3) == 0
			op := ""
			switch r := rng.Intn(23); {
			case r < 9:
				op = fmt.Sprintf("Touch(%d,%v)", n, write)
				touch(t, v, s, n, write)
				m.touch(n, write)
				last = n
			case r < 14:
				// Up to three pages, so one access is several references; or
				// a short run, mostly within one page. Half the short runs
				// have a length access moves as a fixed-size array (1, 4,
				// 16) or one it copies (24), some ending on the page's last
				// byte.
				off := int64(n)*ps + int64(rng.Intn(ps))
				size := 1 + rng.Intn(2*ps)
				if rng.Intn(2) == 0 {
					size = 1 + rng.Intn(64)
					if rng.Intn(2) == 0 {
						size = [...]int{1, 4, 16, 24}[rng.Intn(4)]
						if rng.Intn(4) == 0 {
							off = int64(n+1)*ps - int64(size)
						}
					}
				}
				buf := make([]byte, size)
				if room := int64(len(shadow)) - off; int64(len(buf)) > room {
					buf = buf[:room]
				}
				op = fmt.Sprintf("access(off=%d,len=%d,%v)", off, len(buf), write)
				if write {
					rng.Read(buf)
					copy(shadow[off:], buf)
					if err := v.Write(s, off, buf); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := v.Read(s, off, buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, shadow[off:off+int64(len(buf))]) {
						t.Fatalf("seed %d step %d (%s): read differs from last write", seed, step, op)
					}
				}
				for pg := off / ps; pg <= (off+int64(len(buf))-1)/ps; pg++ {
					m.touch(int32(pg), write)
					last = int32(pg)
				}
			case r < 16:
				off := int64(n)*ps + int64(rng.Intn(ps-7))
				op = fmt.Sprintf("word(off=%d,%v)", off, write)
				word := shadow[off : off+8]
				if write {
					val := rng.Uint64()
					binary.LittleEndian.PutUint64(word, val)
					if err := v.WriteWord(s, off, val); err != nil {
						t.Fatal(err)
					}
				} else {
					got, err := v.ReadWord(s, off)
					if err != nil {
						t.Fatal(err)
					}
					if want := binary.LittleEndian.Uint64(word); got != want {
						t.Fatalf("seed %d step %d (%s): read %#x, last write %#x", seed, step, op, got, want)
					}
				}
				m.touch(n, write)
				last = n
			case r < 17:
				off := rng.Int63n(2 * int64(len(shadow)))
				op = fmt.Sprintf("empty(off=%d,%v)", off, write)
				var err error
				if write {
					err = v.Write(s, off, nil)
				} else {
					err = v.Read(s, off, []byte{})
				}
				if err != nil {
					t.Fatal(err)
				}
			case r < 19:
				if m.pages[n].pin || pinned == frames/2 {
					continue
				}
				op = fmt.Sprintf("Pin(%d)", n)
				if _, err := v.Pin(s, n); err != nil {
					t.Fatal(err)
				}
				m.touch(n, false)
				m.pages[n].pin = true
				pinned++
				last = n
			case r < 21:
				if !m.pages[n].pin {
					continue
				}
				op = fmt.Sprintf("Unpin(%d)", n)
				v.Unpin(s, n)
				m.pages[n].pin = false
				pinned--
			case r < 22:
				if m.pages[n].state != Resident || m.pages[n].pin {
					continue
				}
				op = fmt.Sprintf("Evict(%d)", n)
				if err := v.Evict(s.Page(n)); err != nil {
					t.Fatal(err)
				}
				m.evict(n)
			default:
				op = "ReleaseOldest"
				got, err := v.ReleaseOldest()
				if want := m.releaseOldest(); err != nil || got != want {
					t.Fatalf("seed %d step %d: ReleaseOldest = %v, %v; model %v", seed, step, got, err, want)
				}
			}
			check(step, op)
		}
		if err := pool.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// A resident hit is the simulator's innermost loop and must not allocate,
// through any of the six entry points.
func TestResidentHitDoesNotAllocate(t *testing.T) {
	v, _, _, _ := newTestVM(t, 8)
	s := v.NewSegment("heap", 4)
	buf := make([]byte, 6000) // crosses a page boundary
	if err := v.Write(s, 0, make([]byte, 4*4096)); err != nil {
		t.Fatal(err)
	}
	i := 0
	for name, f := range map[string]func(){
		"Touch":    func() { v.Touch(s, int32(i&3), i&4 != 0) },
		"Read":     func() { v.Read(s, int64(i&1)*4096+100, buf) },
		"Write":    func() { v.Write(s, int64(i&1)*4096+100, buf) },
		"ReadWord": func() { v.ReadWord(s, int64(i&3)*4096+8) },
		"ReadWordInto": func() {
			var w uint64
			v.ReadWordInto(s, int64(i&3)*4096+8, &w)
		},
		"WriteWord": func() { v.WriteWord(s, int64(i&3)*4096+8, uint64(i)) },
	} {
		if got := testing.AllocsPerRun(200, func() { f(); i++ }); got != 0 {
			t.Errorf("resident %s allocates %v times per call", name, got)
		}
	}
}

// A wild address is a workload bug, not a fault: a negative offset through
// any accessor, or a word that straddles a page, panics with the message it
// always had, before the reference is counted or the clock moves.
func TestWildAccessPanics(t *testing.T) {
	v, _, _, clock := newTestVM(t, 4)
	s := v.NewSegment("heap", 4)
	buf := make([]byte, 16)
	const negative = "vm: negative offset"
	for _, c := range []struct {
		name, want string
		access     func()
	}{
		{"Read(-1)", negative, func() { v.Read(s, -1, buf) }},
		{"Read(-1, empty)", negative, func() { v.Read(s, -1, nil) }},
		{"Write(-4096)", negative, func() { v.Write(s, -4096, buf) }},
		{"ReadWord(-8)", negative, func() { v.ReadWord(s, -8) }},
		{"WriteWord(-1)", negative, func() { v.WriteWord(s, -1, 1) }},
		{"ReadWord(4090)", "vm: word access at 4090 straddles a page boundary", func() { v.ReadWord(s, 4090) }},
		{"WriteWord(8191)", "vm: word access at 8191 straddles a page boundary", func() { v.WriteWord(s, 8191, 1) }},
	} {
		refs, now := v.Stats().Refs, clock.Now()
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s panicked with %v, want %q", c.name, got, c.want)
				}
			}()
			c.access()
		}()
		if v.Stats().Refs != refs || clock.Now() != now {
			t.Errorf("%s counted a reference or moved the clock before panicking", c.name)
		}
	}
}
