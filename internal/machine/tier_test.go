package machine

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"compcache/internal/core"
	"compcache/internal/fault"
	"compcache/internal/sim"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// fakeTier is an in-memory Tier that honours the contract the machine relies
// on — it copies what it keeps, returns Sum untouched — and lets a test reach
// behind the machine's back: refuse every Put (and fail every transfer of a
// page it holds), edit or drop a held payload, attach pages that come along
// with a Get. Buffers are recycled so the steady-state allocation tests can
// run with it attached.
type fakeTier struct {
	pages  map[swap.PageKey]swap.Item
	along  map[swap.PageKey][]swap.Item
	free   [][]byte
	refuse bool
}

var errRefused = errors.New("fake tier: refused")

func newFakeTier() *fakeTier {
	return &fakeTier{pages: map[swap.PageKey]swap.Item{}, along: map[swap.PageKey][]swap.Item{}}
}

func (f *fakeTier) Put(it swap.Item) error {
	if f.refuse {
		return errRefused
	}
	buf := f.pages[it.Key].Data
	if n := len(f.free); buf == nil && n > 0 {
		buf, f.free = f.free[n-1], f.free[:n-1]
	}
	it.Data = append(buf[:0], it.Data...)
	f.pages[it.Key] = it
	return nil
}

func (f *fakeTier) Get(key swap.PageKey, _ []byte) ([]byte, bool, uint32, []swap.Item, bool, error) {
	it, ok := f.pages[key]
	if ok && f.refuse {
		return nil, false, 0, nil, true, errRefused
	}
	return it.Data, it.Compressed, it.Sum, f.along[key], ok, nil
}

func (f *fakeTier) Has(key swap.PageKey) bool {
	_, ok := f.pages[key]
	return ok
}

func (f *fakeTier) Invalidate(key swap.PageKey) {
	if it, ok := f.pages[key]; ok {
		f.free = append(f.free, it.Data)
		delete(f.pages, key)
	}
}

// tierRig is a disk-backed compression-cache machine with a fake tier above
// its clustered store, four times overcommitted with incompressible pages:
// every eviction misses the keep threshold and goes down the chain raw.
type tierRig struct {
	m    *Machine
	s    *Space
	fake *fakeTier
	want [][]byte // page contents as written
}

func newTierRig(t *testing.T, refuse bool, fc *fault.Config) *tierRig {
	t.Helper()
	cfg := Default(mb / 4).WithCC()
	if fc != nil {
		fc.ActiveAfter = faultWindow
		cfg = cfg.WithFaults(*fc)
	}
	r := &tierRig{fake: newFakeTier()}
	r.fake.refuse = refuse
	r.m = newMachine(t, cfg, WithRemote(r.fake))
	r.s = r.m.NewSegment("heap", mb)
	rng := rand.New(rand.NewSource(7))
	for p := int32(0); p < r.s.Pages(); p++ {
		page := make([]byte, 4096)
		rng.Read(page)
		r.want = append(r.want, page)
		r.s.Write(int64(p)*4096, page)
	}
	if err := r.m.Err(); err != nil {
		t.Fatalf("setup phase saw an error: %v", err)
	}
	return r
}

// read returns page p's current contents through the simulated VM.
func (r *tierRig) read(p int32) []byte {
	buf := make([]byte, 4096)
	r.s.Read(int64(p)*4096, buf)
	return buf
}

// readBack asserts every page still reads as written.
func (r *tierRig) readBack(t *testing.T) {
	t.Helper()
	for p := int32(0); p < r.s.Pages(); p++ {
		if !bytes.Equal(r.read(p), r.want[p]) {
			t.Fatalf("page %d lost or damaged", p)
		}
	}
}

// swapped returns the first n pages that live only below the cache.
func (r *tierRig) swapped(t *testing.T, n int) []*vm.Page {
	t.Helper()
	var out []*vm.Page
	for p := int32(0); p < r.s.Pages() && len(out) < n; p++ {
		if pg := r.s.seg.Page(p); pg.State == vm.Swapped {
			out = append(out, pg)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d pages swapped out, want %d", len(out), n)
	}
	return out
}

// seedCompressed replaces the tier's copy of a swapped-out page with the
// compressed form of fresh, compressible contents, and records them as the
// page's expected bytes.
func (r *tierRig) seedCompressed(pg *vm.Page, fill string) swap.Item {
	page := bytes.Repeat([]byte(fill), 4096/len(fill)+1)[:4096]
	r.want[pg.Key.Page] = page
	cdata := r.m.codecFor(pg.Key.Seg).Compress(nil, page)
	it := swap.Item{Key: pg.Key, Data: cdata, Compressed: true, Sum: core.Checksum(cdata)}
	r.fake.pages[pg.Key] = it
	return it
}

// wantCorruption asserts the machine died of a detected corruption: a typed
// unrecoverable error wrapping the corruption detail, counted exactly once.
func (r *tierRig) wantCorruption(t *testing.T, detectedBefore uint64) {
	t.Helper()
	err := r.m.Err()
	var ue *fault.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want *fault.UnrecoverableError", err)
	}
	var ce *fault.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("unrecoverable error does not wrap *fault.CorruptionError: %v", err)
	}
	if got := r.m.Faults().CorruptionsDetected; got != detectedBefore+1 {
		t.Fatalf("CorruptionsDetected = %d, want %d", got, detectedBefore+1)
	}
}

func TestTierChain(t *testing.T) {
	cases := []struct {
		name   string
		refuse bool
		faults *fault.Config
		run    func(t *testing.T, r *tierRig)
	}{
		{name: "refused", refuse: true, run: func(t *testing.T, r *tierRig) {
			r.readBack(t)
			if n := len(r.fake.pages); n != 0 {
				t.Fatalf("refusing tier holds %d pages", n)
			}
			st := r.m.Stats()
			if st.Swap.PagesOut == 0 || st.VM.SwapIns == 0 || st.VM.RemoteIns != 0 {
				t.Fatalf("pages did not travel through the clustered store: %+v %+v", st.Swap, st.VM)
			}
		}},
		{name: "held", run: func(t *testing.T, r *tierRig) {
			r.readBack(t)
			st := r.m.Stats()
			if st.VM.RemoteIns == 0 || st.VM.SwapIns != 0 {
				t.Fatalf("faults not reported as vm.SrcRemote: %+v", st.VM)
			}
			if st.Swap.PagesIn != 0 || st.Swap.PagesOut != 0 {
				t.Fatalf("clustered store was used although the tier held every page: %+v", st.Swap)
			}
		}},
		{name: "flip-raw", run: func(t *testing.T, r *tierRig) {
			pg := r.swapped(t, 1)[0]
			r.fake.pages[pg.Key].Data[100] ^= 0x10
			before := r.m.Faults().CorruptionsDetected
			r.read(pg.Key.Page)
			r.wantCorruption(t, before)
		}},
		{name: "flip-compressed", run: func(t *testing.T, r *tierRig) {
			pg := r.swapped(t, 1)[0]
			it := r.seedCompressed(pg, "tier ")
			it.Data[len(it.Data)/2] ^= 0x10
			before := r.m.Faults().CorruptionsDetected
			r.read(pg.Key.Page)
			r.wantCorruption(t, before)
		}},
		{name: "neighbors-then-recovery",
			faults: &fault.Config{Seed: 1, CacheCorruptionRate: 1},
			run: func(t *testing.T, r *tierRig) {
				pgs := r.swapped(t, 2)
				a, b := pgs[0], pgs[1]
				r.seedCompressed(a, "page a ")
				r.fake.along[a.Key] = []swap.Item{r.seedCompressed(b, "page b ")}
				if !bytes.Equal(r.read(a.Key.Page), r.want[a.Key.Page]) {
					t.Fatal("compressed payload from the tier decompressed wrong")
				}
				if b.State != vm.Compressed || !r.m.CC.Has(b.Key) {
					t.Fatalf("page that came along with the Get is %v, want it in the cache", b.State)
				}

				// b's cache entry is clean and its only other copy is in the
				// tier. Step into the injection window: the cache read is
				// corrupted, the ladder finds the tier's copy and serves it.
				r.m.Clock.Charge(sim.CauseIdle, faultWindow)
				before, remoteIns := r.m.Faults(), r.m.VM.Stats().RemoteIns
				if !bytes.Equal(r.read(b.Key.Page), r.want[b.Key.Page]) {
					t.Fatal("recovered page has the wrong contents")
				}
				if err := r.m.Err(); err != nil {
					t.Fatalf("recovery surfaced an error: %v", err)
				}
				after := r.m.Faults()
				if after.Recoveries != before.Recoveries+1 || after.CorruptionsDetected != before.CorruptionsDetected+1 {
					t.Fatalf("recovery not counted once: before %+v after %+v", before, after)
				}
				if got := r.m.VM.Stats().RemoteIns; got != remoteIns+1 {
					t.Fatalf("RemoteIns = %d, want %d: the recovery was not served by the tier", got, remoteIns+1)
				}
			}},
		{name: "dirtied", run: func(t *testing.T, r *tierRig) {
			pg := r.swapped(t, 1)[0]
			// Give the clustered store a copy too, as the chain would.
			if err := r.m.below[1].tier.Put(r.fake.pages[pg.Key]); err != nil {
				t.Fatal(err)
			}
			r.read(pg.Key.Page)
			if !r.fake.Has(pg.Key) || !r.m.store.Has(pg.Key) {
				t.Fatal("a clean fault dropped a copy below")
			}
			r.s.WriteWord(int64(pg.Key.Page)*4096, 42)
			if r.fake.Has(pg.Key) || r.m.store.Has(pg.Key) {
				t.Fatal("a stale copy survived the first modification")
			}
		}},
		{name: "lost-page", run: func(t *testing.T, r *tierRig) {
			pg := r.swapped(t, 1)[0]
			delete(r.fake.pages, pg.Key)
			err := r.m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "absent from backing store") {
				t.Fatalf("CheckInvariants = %v, want the lost page reported", err)
			}
			r.fake.pages[pg.Key] = swap.Item{Key: pg.Key} // the deferred check below runs on a consistent machine
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTierRig(t, tc.refuse, tc.faults)
			tc.run(t, r)
			if r.m.Err() == nil {
				if err := r.m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// tierRows builds every Tier in the package the way a machine gets it: the
// three stores from a machine of their own (idle — no segment ever pages
// through it), the fake as tests attach it. broke makes every device transfer
// from then on fail, so a Put is refused and a held page cannot be delivered.
var tierRows = []struct {
	name string
	raw  bool // keeps whole pages with no sum and delivers into the frame
	new  func(t *testing.T) (tier Tier, broke func())
}{
	{"direct", true, storeOf(Default(mb))},
	{"lfs", true, storeOf(Default(mb).WithLFS(swap.LFSConfig{SegmentBytes: 4 * 4096}))},
	{"clustered", false, storeOf(Default(mb).WithCC())},
	{"fake", false, func(*testing.T) (Tier, func()) {
		f := newFakeTier()
		return f, func() { f.refuse = true }
	}},
}

func storeOf(cfg Config) func(t *testing.T) (Tier, func()) {
	return func(t *testing.T) (Tier, func()) {
		m := newMachine(t, cfg.WithFaults(fault.Config{Seed: 1, ReadErrorRate: 1, WriteErrorRate: 1, ActiveAfter: faultWindow}))
		t.Cleanup(func() {
			if err := m.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
		return m.store, func() { m.Drain(); m.Clock.Charge(sim.CauseIdle, faultWindow) }
	}
}

// TestTierContract holds every Tier to what the chain relies on. A random
// stream of Put, Get and Invalidate over a few keys runs against the tier and
// a plain map of the items last put: after every step Has agrees with the map
// and Get returns the item — the bytes, and for a tier that carries one the
// flag and the sum exactly as given, which is never a real checksum here. A
// raw tier's bytes arrive in the frame it was handed, with no staging copy;
// no other tier touches that frame. Then the device breaks: a held page is
// still held but cannot be delivered, a page never put is still a clean miss,
// and a refused Put leaves nothing behind.
func TestTierContract(t *testing.T) {
	for _, row := range tierRows {
		t.Run(row.name, func(t *testing.T) {
			tier, broke := row.new(t)
			rng := rand.New(rand.NewSource(5))
			model := map[swap.PageKey]swap.Item{}
			frame := make([]byte, 4096)
			get := func(key swap.PageKey) (swap.Item, bool, error) {
				for i := range frame {
					frame[i] = 0xEE
				}
				it := swap.Item{Key: key}
				var ok bool
				var err error
				it.Data, it.Compressed, it.Sum, _, ok, err = tier.Get(key, frame)
				if row.raw && ok && err == nil && &it.Data[0] != &frame[0] {
					t.Fatalf("Get(%v) staged the page instead of filling the frame", key)
				}
				if !row.raw && bytes.Count(frame, []byte{0xEE}) != len(frame) {
					t.Fatalf("Get(%v) wrote into the frame", key)
				}
				return it, ok, err
			}
			newItem := func(key swap.PageKey) swap.Item {
				it := swap.Item{Key: key, Data: make([]byte, 4096)}
				if !row.raw {
					it.Sum = rng.Uint32()
					if it.Compressed = rng.Intn(2) == 0; it.Compressed {
						it.Data = it.Data[:16+rng.Intn(3000)]
					}
				}
				rng.Read(it.Data)
				return it
			}
			for step := 0; step < 600; step++ {
				key := swap.PageKey{Seg: int32(rng.Intn(2)), Page: int32(rng.Intn(24))}
				switch rng.Intn(4) {
				case 0, 1:
					it := newItem(key)
					if err := tier.Put(it); err != nil {
						t.Fatalf("step %d: Put(%v): %v", step, key, err)
					}
					model[key] = it
				case 2:
					tier.Invalidate(key)
					delete(model, key)
				}
				want, held := model[key]
				if tier.Has(key) != held {
					t.Fatalf("step %d: Has(%v) = %t, want %t", step, key, !held, held)
				}
				got, ok, err := get(key)
				if ok != held || err != nil {
					t.Fatalf("step %d: Get(%v) = %t, %v; want %t, nil", step, key, ok, err, held)
				}
				if held && (!bytes.Equal(got.Data, want.Data) || got.Compressed != want.Compressed || got.Sum != want.Sum) {
					t.Fatalf("step %d: Get(%v) returned %d bytes, compressed %t, sum %08x; put %d bytes, %t, %08x",
						step, key, len(got.Data), got.Compressed, got.Sum, len(want.Data), want.Compressed, want.Sum)
				}
			}

			var old swap.PageKey // held since before the last 16 puts: on the device, not in a store buffer
			for key := range model {
				old = key
				break
			}
			for page := int32(100); page < 116; page++ {
				if err := tier.Put(newItem(swap.PageKey{Seg: 2, Page: page})); err != nil {
					t.Fatal(err)
				}
			}
			broke()
			if _, ok, err := get(old); !ok || err == nil {
				t.Errorf("broken Get of a held page = %t, %v; want true and the failure", ok, err)
			}
			if _, ok, err := get(swap.PageKey{Seg: 3}); ok || err != nil {
				t.Errorf("broken Get of a page never put = %t, %v; want a clean miss", ok, err)
			}
			// A log takes pages into its buffer until the segment is due.
			for page := int32(200); ; page++ {
				key := swap.PageKey{Seg: 2, Page: page}
				if err := tier.Put(newItem(key)); err != nil {
					if tier.Has(key) {
						t.Errorf("Put(%v) was refused (%v) and the tier holds the page", key, err)
					}
					break
				} else if !tier.Has(key) || page == 216 {
					t.Fatalf("Put(%v) on a broken device: no error, Has = %t", key, tier.Has(key))
				}
			}
		})
	}
}

// TestSnapshotRefusesRemoteTier: pages only the remote tier holds are not in
// a snapshot, so both directions refuse up front and say why — instead of
// Restore failing late on "restored state fails invariants".
func TestSnapshotRefusesRemoteTier(t *testing.T) {
	cfg := Default(mb / 4).WithCC()
	r := newTierRig(t, false, nil)
	if _, err := r.m.Snapshot(); err == nil || !strings.Contains(err.Error(), "remote tier") {
		t.Fatalf("Snapshot with a remote tier = %v, want a refusal naming it", err)
	}
	blob, err := newMachine(t, cfg).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(cfg, blob, WithRemote(newFakeTier())); err == nil || !strings.Contains(err.Error(), "remote tier") {
		t.Fatalf("Restore with a remote tier = %v, want a refusal naming it", err)
	}
	if _, err := Restore(cfg, blob); err != nil {
		t.Fatalf("Restore without the tier: %v", err)
	}
}

// TestRemoteTierNeedsACompressionCache: fleet memory holds summed travel-form
// items, which only a compression-cache machine produces; New says so rather
// than drop the option.
func TestRemoteTierNeedsACompressionCache(t *testing.T) {
	for _, cfg := range []Config{Default(mb), Default(mb).WithLFS(swap.LFSConfig{})} {
		if _, err := New(cfg, WithRemote(newFakeTier())); err == nil || !strings.Contains(err.Error(), "WithRemote needs a compression cache") {
			t.Errorf("New(baseline, WithRemote) = %v, want a refusal", err)
		}
	}
}
