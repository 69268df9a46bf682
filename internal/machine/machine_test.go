package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"compcache/internal/netdev"
	"compcache/internal/policy"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

const mb = 1 << 20

func newMachine(t *testing.T, cfg Config, opts ...Option) *Machine {
	t.Helper()
	m, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fillCompressible writes highly compressible content (mostly zeros with a
// counter) to every page of the space.
func fillCompressible(s *Space) {
	var word [8]byte
	for p := int32(0); p < s.Pages(); p++ {
		binary.LittleEndian.PutUint64(word[:], uint64(p)+1)
		s.Write(int64(p)*4096, word[:])
	}
}

// fillRandom writes incompressible content to every page.
func fillRandom(s *Space, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	page := make([]byte, 4096)
	for p := int32(0); p < s.Pages(); p++ {
		rng.Read(page)
		s.Write(int64(p)*4096, page)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, c := range []struct {
		pageSize int
		ok       bool
	}{
		{512, true}, {4096, true}, {8192, true}, {65536, true},
		{-4096, false}, {256, false}, {1000, false}, {131072, false},
		{1536, false}, // a multiple of the sector size, but not a power of two
	} {
		_, err := New(Config{PageSize: c.pageSize, MemoryBytes: mb})
		var pse *PageSizeError
		switch {
		case c.ok && err != nil:
			t.Errorf("page size %d rejected: %v", c.pageSize, err)
		case !c.ok && !errors.As(err, &pse):
			t.Errorf("page size %d: err = %v, want a *PageSizeError", c.pageSize, err)
		case !c.ok && pse.Size != c.pageSize:
			t.Errorf("page size %d: error names size %d", c.pageSize, pse.Size)
		case !c.ok && !strings.Contains(err.Error(), "from 512 to 65536"):
			t.Errorf("page size %d: error %q does not state both limits", c.pageSize, err)
		}
	}
	// Seven pages, and one frame more than a mem.FrameID names: refused by
	// the configuration check, before a frame table is allocated.
	for _, memBytes := range []int64{7 * 4096, (math.MaxInt32 + 1) * 4096} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New(Config{MemoryBytes: memBytes})
		runtime.ReadMemStats(&after)
		var mse *MemorySizeError
		if !errors.As(err, &mse) || mse.Bytes != memBytes {
			t.Errorf("memory of %d bytes: err = %v, want a *MemorySizeError naming it", memBytes, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("memory of %d bytes: New allocated %d bytes before refusing it", memBytes, got)
		}
	}
	cfg := Default(mb)
	cfg.CC.Enabled = true
	cfg.CC.Codec = "no-such-codec"
	if _, err := New(cfg); err == nil {
		t.Error("unknown codec accepted")
	}
	cfg = Default(mb)
	cfg.CC.KeepNum, cfg.CC.KeepDen = 5, 4
	if _, err := New(cfg); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

// TestNewRefusesSettingsItCannotHonour: a setting the machine would ignore
// or trip over mid-run is an error from New, not a silent no-op or a panic
// at the first pageout.
func TestNewRefusesSettingsItCannotHonour(t *testing.T) {
	swapPage := Default(mb).WithCC()
	swapPage.Swap.PageSize = 8192
	backward := Default(mb)
	backward.Cost.MemRef = -1
	nanBW := Default(mb)
	nanBW.Cost.CompressBW = math.NaN()
	tinyBW := Default(mb)
	tinyBW.Cost.DecompressBW = 1e-300
	for name, c := range map[string]struct {
		cfg  Config
		want string
	}{
		"LFSSwap on a cc machine":   {Default(mb).WithCC().WithLFS(swap.LFSConfig{}), "LFSSwap"},
		"Swap.PageSize != PageSize": {swapPage, "Swap.PageSize 8192"},
		"LFS PageSize != PageSize":  {Default(mb).WithLFS(swap.LFSConfig{PageSize: 8192}), "LFSSwap.PageSize 8192"},
		"negative MemRef":           {backward, "negative cost"},
		"NaN CompressBW":            {nanBW, "bandwidth NaN"},
		"tiny DecompressBW":         {tinyBW, "bandwidth 1e-300"},
	} {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
	}
}

// TestBiasesDefaultWhatTheyOmit: a zero bias takes the paper's, so setting
// the other consumers to their defaults is the same machine as setting
// nothing, and a neutral cc bias is not.
func TestBiasesDefaultWhatTheyOmit(t *testing.T) {
	run := func(biases policy.Biases) time.Duration {
		cfg := Default(mb).WithCC()
		cfg.Biases = biases
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", 512*4096)
		fillCompressible(s)
		for pass := 0; pass < 2; pass++ {
			for p := int32(0); p < s.Pages(); p++ {
				s.Touch(p, true)
			}
		}
		m.Drain()
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	def := policy.DefaultBiases()
	want := run(policy.Biases{})
	if got := run(policy.Biases{FS: def.FS, VM: def.VM}); got != want {
		t.Errorf("omitting cc: %v, want the default machine's %v", got, want)
	}
	if got := run(policy.Biases{CC: policy.Neutral}); got == want {
		t.Errorf("a neutral cc bias ran in the default machine's %v: the sweep would measure nothing", got)
	}
}

func TestBaselineInMemoryWorkload(t *testing.T) {
	m := newMachine(t, Default(mb))
	s := m.NewSegment("heap", 64*4096)
	fillCompressible(s)
	// Everything fits: re-reading must not fault again.
	f0 := m.Stats().VM.Faults
	for p := int32(0); p < s.Pages(); p++ {
		s.Touch(p, false)
	}
	if m.Stats().VM.Faults != f0 {
		t.Fatal("refs faulted despite fitting in memory")
	}
	if m.Stats().Disk.Reads != 0 {
		t.Fatal("disk reads for an in-memory workload")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineThrashingIntegrity(t *testing.T) {
	m := newMachine(t, Default(mb)) // 256 frames
	s := m.NewSegment("heap", 512*4096)
	rng := rand.New(rand.NewSource(1))
	shadow := make(map[int64]uint64)
	for i := 0; i < 4000; i++ {
		off := int64(rng.Intn(int(s.Pages())))*4096 + int64(rng.Intn(500))*8
		if rng.Intn(2) == 0 {
			val := rng.Uint64()
			s.WriteWord(off, val)
			shadow[off] = val
		} else if got := s.ReadWord(off); got != shadow[off] {
			t.Fatalf("step %d: read %d, want %d", i, got, shadow[off])
		}
	}
	st := m.Stats()
	if st.VM.SwapIns == 0 || st.Disk.Writes == 0 {
		t.Fatalf("expected paging traffic: %+v", st.VM)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCCThrashingIntegrity(t *testing.T) {
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", 512*4096)
	rng := rand.New(rand.NewSource(2))
	shadow := make(map[int64]uint64)
	for i := 0; i < 6000; i++ {
		off := int64(rng.Intn(int(s.Pages())))*4096 + int64(rng.Intn(500))*8
		if rng.Intn(2) == 0 {
			val := rng.Uint64()
			s.WriteWord(off, val)
			shadow[off] = val
		} else if got := s.ReadWord(off); got != shadow[off] {
			t.Fatalf("step %d: read %d, want %d", i, got, shadow[off])
		}
		if i%1000 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	st := m.Stats()
	if st.CC.Inserts == 0 || st.CC.Hits == 0 {
		t.Fatalf("compression cache unused: %+v", st.CC)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCCEliminatesDiskIOWhenFitsCompressed(t *testing.T) {
	// 2x memory of near-zero pages compresses far below memory size: after
	// the cold pass, cyclic sweeps must be serviced without disk reads.
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", 2*mb)
	fillCompressible(s)
	reads0 := m.Stats().Disk.Reads
	for pass := 0; pass < 3; pass++ {
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, false)
		}
	}
	st := m.Stats()
	// The cleaner may push clean copies out and the policy may briefly trim
	// the cache, so a handful of re-reads is legitimate; what must not
	// happen is disk reads on any meaningful fraction of faults.
	if got := st.Disk.Reads - reads0; got > st.VM.Faults/20 {
		t.Fatalf("CC machine read disk %d times on a fits-compressed workload (%d faults)", got, st.VM.Faults)
	}
	if st.CC.Hits == 0 {
		t.Fatal("no compression-cache hits")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineSameWorkloadHitsDisk(t *testing.T) {
	m := newMachine(t, Default(mb))
	s := m.NewSegment("heap", 2*mb)
	fillCompressible(s)
	r0 := m.Stats().Disk.Reads
	for p := int32(0); p < s.Pages(); p++ {
		s.Touch(p, false)
	}
	if got := m.Stats().Disk.Reads - r0; got == 0 {
		t.Fatal("baseline avoided disk on a 2x-memory workload")
	}
}

func TestCCFasterThanBaselineOnCompressible(t *testing.T) {
	run := func(cfg Config) int64 {
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", 2*mb)
		fillCompressible(s)
		m.MarkStart()
		for pass := 0; pass < 3; pass++ {
			for p := int32(0); p < s.Pages(); p++ {
				s.Touch(p, true)
			}
		}
		m.Drain()
		return int64(m.Elapsed())
	}
	base := run(Default(mb))
	cc := run(Default(mb).WithCC())
	if cc >= base {
		t.Fatalf("CC (%d) not faster than baseline (%d) on compressible thrash", cc, base)
	}
	if float64(base)/float64(cc) < 2 {
		t.Fatalf("speedup only %.2fx, want >= 2x", float64(base)/float64(cc))
	}
}

func TestCCSlowerOnIncompressible(t *testing.T) {
	run := func(cfg Config) int64 {
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", 2*mb)
		fillRandom(s, 7)
		m.MarkStart()
		for pass := 0; pass < 2; pass++ {
			for p := int32(0); p < s.Pages(); p++ {
				s.Touch(p, false)
			}
		}
		m.Drain()
		return int64(m.Elapsed())
	}
	base := run(Default(mb))
	cc := run(Default(mb).WithCC())
	if cc <= base {
		t.Fatalf("CC (%d) should be slower than baseline (%d) on incompressible data: compression effort is wasted", cc, base)
	}
}

func TestIncompressibleCounted(t *testing.T) {
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", 2*mb)
	fillRandom(s, 3)
	st := m.Stats()
	if st.Comp.Compressions == 0 {
		t.Fatal("no compressions attempted")
	}
	if st.Comp.UncompressibleFrac() < 0.9 {
		t.Fatalf("uncompressible fraction %.2f, want > 0.9 for random pages", st.Comp.UncompressibleFrac())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionRatioMeasured(t *testing.T) {
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", 2*mb)
	fillCompressible(s)
	st := m.Stats()
	if r := st.Comp.Ratio(); r > 0.25 {
		t.Fatalf("near-zero pages compressed to ratio %.2f, want <= 0.25", r)
	}
}

func TestDataSurvivesFullHierarchyRoundTrip(t *testing.T) {
	// Small memory forces pages through CC, cleaning, swap, GC and back.
	cfg := Default(mb / 4).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", mb)
	content := make([][]byte, s.Pages())
	rng := rand.New(rand.NewSource(4))
	buf := make([]byte, 4096)
	for p := int32(0); p < s.Pages(); p++ {
		// Half compressible, half random: exercises both paths.
		if p%2 == 0 {
			for i := range buf {
				buf[i] = byte(p)
			}
		} else {
			rng.Read(buf)
		}
		content[p] = append([]byte(nil), buf...)
		s.Write(int64(p)*4096, buf)
	}
	// Random revisits force heavy replacement traffic.
	for i := 0; i < 2000; i++ {
		p := int32(rng.Intn(int(s.Pages())))
		s.Read(int64(p)*4096, buf)
		if !bytes.Equal(buf, content[p]) {
			t.Fatalf("page %d corrupted after %d steps", p, i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborPrefetchPopulatesCC(t *testing.T) {
	cfg := Default(mb / 2).WithCC()
	m := newMachine(t, cfg)
	// 4x memory of compressible pages: the CC cannot hold everything, so
	// the cleaner pushes clusters to swap; sequential re-reads should then
	// pull neighbors back in and hit the cache.
	s := m.NewSegment("heap", 2*mb)
	fillCompressible(s)
	for pass := 0; pass < 2; pass++ {
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, false)
		}
	}
	st := m.Stats()
	if st.VM.SwapIns == 0 {
		t.Skip("workload fit without swap; prefetch not exercised")
	}
	if st.CC.Hits == 0 {
		t.Fatal("no cache hits despite clustered prefetch")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMarkStartAndElapsed(t *testing.T) {
	m := newMachine(t, Default(mb))
	s := m.NewSegment("heap", 16*4096)
	fillCompressible(s)
	if m.Elapsed() == 0 {
		t.Fatal("no time elapsed during setup")
	}
	m.MarkStart()
	if m.Elapsed() != 0 {
		t.Fatal("MarkStart did not reset elapsed time")
	}
	s.Touch(0, false)
	if m.Elapsed() == 0 {
		t.Fatal("Elapsed did not advance")
	}
}

func TestRereadAfterDirtyInvalidatesStaleCopies(t *testing.T) {
	cfg := Default(mb / 4).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", mb)
	fillCompressible(s)
	// Rewrite every page with new values, then force them out and back.
	var word [8]byte
	for p := int32(0); p < s.Pages(); p++ {
		binary.LittleEndian.PutUint64(word[:], uint64(p)+7777)
		s.Write(int64(p)*4096, word[:])
	}
	for p := int32(0); p < s.Pages(); p++ {
		if got := s.ReadWord(int64(p) * 4096); got != uint64(p)+7777 {
			t.Fatalf("page %d: stale value %d", p, got)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceAccessors(t *testing.T) {
	m := newMachine(t, Default(mb))
	s := m.NewSegment("heap", 10000)
	if s.Pages() != 3 || s.Size() != 3*4096 {
		t.Fatalf("pages=%d size=%d", s.Pages(), s.Size())
	}
	if s.Machine() != m {
		t.Fatal("Machine() mismatch")
	}
}

func TestPageStateTransitions(t *testing.T) {
	cfg := Default(mb / 4).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", mb)
	fillCompressible(s)
	states := map[vm.PageState]int{}
	for _, seg := range m.VM.Segments() {
		for i := int32(0); i < seg.NPages; i++ {
			states[seg.Page(i).State]++
		}
	}
	if states[vm.Compressed] == 0 {
		t.Fatalf("no pages in compressed state: %v", states)
	}
	if states[vm.Resident] == 0 {
		t.Fatalf("no resident pages: %v", states)
	}
}

func TestEvictAllPushesEverythingOut(t *testing.T) {
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", mb/2)
	fillCompressible(s)
	m.EvictAll()
	if m.VM.ResidentPages() != 0 {
		t.Fatalf("resident pages after EvictAll: %d", m.VM.ResidentPages())
	}
	if m.CC.FrameCount() != 0 {
		t.Fatalf("cc frames after EvictAll: %d", m.CC.FrameCount())
	}
	if m.FS.CacheLen() != 0 {
		t.Fatalf("fs cache after EvictAll: %d", m.FS.CacheLen())
	}
	// All data must still be intact on the backing store.
	for p := int32(0); p < s.Pages(); p++ {
		if got := s.ReadWord(int64(p) * 4096); got != uint64(p)+1 {
			t.Fatalf("page %d lost after EvictAll: %d", p, got)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFixedFramesCacheNeverResizes(t *testing.T) {
	cfg := Default(mb).WithCC()
	cfg.CC.FixedFrames = 64
	m := newMachine(t, cfg)
	if got := m.CC.FrameCount(); got != 64 {
		t.Fatalf("prefilled frames = %d, want 64", got)
	}
	s := m.NewSegment("heap", 2*mb)
	fillCompressible(s)
	for pass := 0; pass < 2; pass++ {
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, false)
		}
	}
	if got := m.CC.FrameCount(); got != 64 {
		t.Fatalf("fixed cache resized to %d frames", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialIOMachineReadsLess(t *testing.T) {
	run := func(partial bool) uint64 {
		cfg := Default(mb / 2).WithCC()
		cfg.FS.AllowPartialIO = partial
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", 2*mb)
		fillRandom(s, 5) // incompressible: raw 4K pages to swap either way
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, false)
		}
		return m.Stats().Disk.BytesRead
	}
	whole := run(false)
	exact := run(true)
	if exact > whole {
		t.Fatalf("partial IO read more (%d) than whole-block (%d)", exact, whole)
	}
}

func TestCodecChoiceAffectsBehaviour(t *testing.T) {
	run := func(codec string) float64 {
		cfg := Default(mb).WithCC()
		cfg.CC.Codec = codec
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", 2*mb)
		fillCompressible(s)
		return m.Stats().Comp.Ratio()
	}
	if lz := run("lzrw1"); lz > 0.3 {
		t.Fatalf("lzrw1 ratio %.2f on zero-ish pages", lz)
	}
	// RLE also crushes near-zero pages.
	if rle := run("rle"); rle > 0.3 {
		t.Fatalf("rle ratio %.2f on zero-ish pages", rle)
	}
}

func TestNetworkBackedMachine(t *testing.T) {
	// A diskless machine paging over a slow wireless link: same integrity
	// guarantees, and the compression cache matters even more.
	run := func(cfg Config) int64 {
		m := newMachine(t, cfg)
		s := m.NewSegment("heap", 2*mb)
		fillCompressible(s)
		m.MarkStart()
		for pass := 0; pass < 2; pass++ {
			for p := int32(0); p < s.Pages(); p++ {
				s.Touch(p, false)
			}
		}
		m.Drain()
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return int64(m.Elapsed())
	}
	wireless := netdev.Wireless2()
	base := run(Default(mb).WithNetwork(wireless))
	cc := run(Default(mb).WithNetwork(wireless).WithCC())
	if cc >= base {
		t.Fatalf("CC (%d) not faster than baseline (%d) over wireless", cc, base)
	}
	if float64(base)/float64(cc) < 3 {
		t.Fatalf("wireless speedup only %.2fx; slow links should amplify the cache's benefit",
			float64(base)/float64(cc))
	}
}

func TestNetworkMachineIntegrity(t *testing.T) {
	cfg := Default(mb / 2).WithNetwork(netdev.Ethernet10()).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", mb)
	rng := rand.New(rand.NewSource(3))
	shadow := make(map[int64]uint64)
	for i := 0; i < 3000; i++ {
		off := int64(rng.Intn(int(s.Pages())))*4096 + int64(rng.Intn(500))*8
		if rng.Intn(2) == 0 {
			val := rng.Uint64()
			s.WriteWord(off, val)
			shadow[off] = val
		} else if got := s.ReadWord(off); got != shadow[off] {
			t.Fatalf("step %d: read %d, want %d", i, got, shadow[off])
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPerSegmentCodec(t *testing.T) {
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	if _, err := m.NewSegmentCodec("bad", mb, "no-such"); err == nil {
		t.Fatal("unknown codec accepted")
	}
	// A null-codec segment and an lzrw1 segment, both with compressible
	// data and enough pressure to compress: the null segment's pages never
	// meet the retention threshold.
	nullSeg, err := m.NewSegmentCodec("null", 2*mb, "null")
	if err != nil {
		t.Fatal(err)
	}
	fillCompressible(nullSeg)
	st := m.Stats()
	if st.Comp.Compressions == 0 {
		t.Fatal("no compression attempts")
	}
	if st.Comp.UncompressibleFrac() < 0.99 {
		t.Fatalf("null codec retained pages: uncomp %.2f", st.Comp.UncompressibleFrac())
	}
	// Data integrity across the raw-swap path.
	for p := int32(0); p < nullSeg.Pages(); p++ {
		if got := nullSeg.ReadWord(int64(p) * 4096); got != uint64(p)+1 {
			t.Fatalf("page %d corrupted: %d", p, got)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedPagesSurviveThrash(t *testing.T) {
	m := newMachine(t, Default(mb))
	s := m.NewSegment("heap", 2*mb)
	fillCompressible(s)
	// Pin page 0 and thrash everything else: page 0 must never fault again.
	s.Pin(0)
	f0 := m.Stats().VM.Faults
	for p := int32(1); p < s.Pages(); p++ {
		s.Touch(p, false)
	}
	s.Touch(0, false)
	s.Unpin(0)
	st := m.Stats()
	if st.VM.Faults-f0 < uint64(s.Pages())/2 {
		t.Fatal("test did not thrash")
	}
	if st.VM.PinnedSkips == 0 {
		t.Fatal("eviction never skipped the pinned page")
	}
}

func TestCompressedFileCache(t *testing.T) {
	if _, err := New(func() Config {
		c := Default(mb)
		c.CC.FileCache = true // without Enabled
		return c
	}()); err == nil {
		t.Fatal("FileCache without CC accepted")
	}

	cfg := Default(mb).WithCC()
	cfg.CC.FileCache = true
	m := newMachine(t, cfg)
	f := m.FS.Create("data")
	// Write a compressible 3 MB file, then re-read it cyclically.
	buf := make([]byte, 4096)
	for b := int64(0); b < 768; b++ {
		for i := range buf {
			buf[i] = byte(b)
		}
		f.WriteAt(buf, b*4096)
	}
	m.FS.Sync()
	r0 := m.Stats().Disk.Reads
	for pass := 0; pass < 2; pass++ {
		for b := int64(0); b < 768; b++ {
			f.ReadAt(buf, b*4096)
			if buf[0] != byte(b) {
				t.Fatalf("block %d corrupted through compressed cache", b)
			}
		}
	}
	if m.FS.CompressedCacheHits() == 0 {
		t.Fatal("compressed file cache never hit")
	}
	if got := m.Stats().Disk.Reads - r0; got > 768 {
		t.Fatalf("compressed cache barely reduced disk reads: %d", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLFSBackedMachineIntegrity(t *testing.T) {
	cfg := Default(mb).WithLFS(swap.LFSConfig{SegmentBytes: 16 * 4096})
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", 2*mb)
	rng := rand.New(rand.NewSource(6))
	shadow := make(map[int64]uint64)
	for i := 0; i < 4000; i++ {
		off := int64(rng.Intn(int(s.Pages())))*4096 + int64(rng.Intn(500))*8
		if rng.Intn(2) == 0 {
			val := rng.Uint64()
			s.WriteWord(off, val)
			shadow[off] = val
		} else if got := s.ReadWord(off); got != shadow[off] {
			t.Fatalf("step %d: read %d, want %d", i, got, shadow[off])
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats().Swap; st.PagesOut == 0 || st.GCs == 0 {
		t.Fatalf("LFS swap unused or never cleaned: %d pages out, %d cleaner passes", st.PagesOut, st.GCs)
	}
}

// TestConfigMatrixIntegrity drives a randomized access script through every
// interesting configuration combination and checks end-to-end data
// integrity plus cross-subsystem invariants — the closest thing the
// simulator has to fault-injection coverage of the paging paths.
func TestConfigMatrixIntegrity(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	add := func(name string, cfg Config) { variants = append(variants, variant{name, cfg}) }

	add("baseline", Default(mb/2))
	add("baseline+lfs", Default(mb/2).WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096}))
	add("baseline+net", Default(mb/2).WithNetwork(netdev.Ethernet10()))
	for _, codec := range []string{"lzrw1", "lzss"} {
		for _, span := range []bool{false, true} {
			for _, partial := range []bool{false, true} {
				cfg := Default(mb / 2).WithCC()
				cfg.CC.Codec = codec
				cfg.Swap.SpanBlocks = span
				cfg.FS.AllowPartialIO = partial
				add(fmt.Sprintf("cc/%s/span=%v/partial=%v", codec, span, partial), cfg)
			}
		}
	}
	ccNet := Default(mb / 2).WithCC().WithNetwork(netdev.Wireless2())
	add("cc+wireless", ccNet)
	ccRefresh := Default(mb / 2).WithCC()
	ccRefresh.CC.RefreshOnFault = true
	add("cc+refresh", ccRefresh)
	ccFixed := Default(mb / 2).WithCC()
	ccFixed.CC.FixedFrames = 32
	add("cc+fixed", ccFixed)

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			m := newMachine(t, v.cfg)
			s := m.NewSegment("heap", mb)
			rng := rand.New(rand.NewSource(99))
			shadow := make(map[int64]uint64)
			page := make([]byte, 4096)
			for i := 0; i < 2500; i++ {
				switch rng.Intn(10) {
				case 0: // bulk page write, mixed compressibility
					p := int64(rng.Intn(int(s.Pages())))
					if rng.Intn(2) == 0 {
						rng.Read(page)
					} else {
						for j := range page {
							page[j] = byte(p)
						}
					}
					s.Write(p*4096, page)
					// The whole page changed: refresh every shadowed word in it.
					for off := range shadow {
						if off/4096 == p {
							j := off % 4096
							shadow[off] = uint64(page[j]) | uint64(page[j+1])<<8 |
								uint64(page[j+2])<<16 | uint64(page[j+3])<<24 |
								uint64(page[j+4])<<32 | uint64(page[j+5])<<40 |
								uint64(page[j+6])<<48 | uint64(page[j+7])<<56
						}
					}
				case 1, 2, 3, 4: // word write
					off := int64(rng.Intn(int(s.Pages())))*4096 + int64(rng.Intn(512))*8
					val := rng.Uint64()
					s.WriteWord(off, val)
					shadow[off] = val
				default: // read + verify
					off := int64(rng.Intn(int(s.Pages())))*4096 + int64(rng.Intn(512))*8
					want, seen := shadow[off]
					if !seen {
						continue
					}
					if got := s.ReadWord(off); got != want {
						t.Fatalf("step %d: %d != %d at %d", i, got, want, off)
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkNoHeldFrames(t, m)
		})
	}
}

func TestFreezeStart(t *testing.T) {
	m := newMachine(t, Default(mb))
	s := m.NewSegment("heap", 16*4096)
	s.Touch(0, true)
	m.FreezeStart()
	frozen := m.Elapsed()
	s.Touch(1, true)
	m.MarkStart() // must be a no-op now
	if m.Elapsed() <= frozen {
		t.Fatal("MarkStart reset the frozen origin")
	}
}
