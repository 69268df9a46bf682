package machine

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/stats"
	"compcache/internal/swap"
)

// The compression cache's value proposition is that a compressed-memory hit
// costs microseconds of simulated decompression, not milliseconds of disk.
// On the host side that only holds if the steady-state PageOut/PageIn cycle
// stays off the garbage collector: the machine compresses into a per-machine
// scratch buffer, core.Cache copies into recycled slabs and recycles its
// entry and frame bookkeeping, the stores clean and compact out of scratch
// they own, the codecs pool theirs, the compress memo is one slab, and the
// plaintext memo's chunks stop growing once the pages it admits have each had one
// (during warm-up). steadyRows pins that for every store shape a machine pages through by
// running it. Nothing reads the source for allocation sites, so a row sees
// only what it drives — and therefore proves, from the machine's own counters
// over the measured touches, that the path it names is the path it drove.

// counter is one monotonic reading of a machine's statistics.
type counter struct {
	name string
	get  func(stats.Run) int64
}

var (
	cacheHits = counter{"VM.CacheHits", func(r stats.Run) int64 { return int64(r.VM.CacheHits) }}
	swapIns   = counter{"VM.SwapIns", func(r stats.Run) int64 { return int64(r.VM.SwapIns) }}
	remoteIns = counter{"VM.RemoteIns", func(r stats.Run) int64 { return int64(r.VM.RemoteIns) }}
	inserts   = counter{"CC.Inserts", func(r stats.Run) int64 { return int64(r.CC.Inserts) }}
	spills    = counter{"CC.CleanWrites", func(r stats.Run) int64 { return int64(r.CC.CleanWrites) }}
	storeGCs  = counter{"Swap.GCs", func(r stats.Run) int64 { return int64(r.Swap.GCs) }}
	// Only insertNeighbors puts into the cache what compress never kept.
	prefetched = counter{"CC.Inserts - (Comp.Compressions - Comp.Incompressible)", func(r stats.Run) int64 {
		return int64(r.CC.Inserts) - int64(r.Comp.Compressions-r.Comp.Incompressible)
	}}
)

// steadyRow is one store shape under an over-committed working set.
type steadyRow struct {
	name   string
	writes int            // every writes-th pass dirties the pages it touches; 0: none does
	cfg    func() Config  // 1 MB of memory, 256 frames
	tier   bool           // a fake fleet-memory tier above the backing store
	codec  string         // the segment's own codec, "" for the machine's
	pages  int32          // working-set size
	fill   func(s *Space) // page contents, written before warm-up
	drove  []counter      // each must advance during the measured touches
	plain  bool           // the plaintext memo must serve some of the decompressions
}

func ccConfig() Config { return Default(mb).WithCC() }

// steadyRows has the compression cache alone and under a tier, then the five
// store configurations of the perf ledger's `stores` workload, then the
// prefetch path with a per-segment codec.
var steadyRows = []steadyRow{
	// The working set does not fit in RAM but compresses well enough to live
	// entirely in the cache.
	{name: "local", cfg: ccConfig, pages: 400, fill: fillCompressible, drove: []counter{cacheHits}, plain: true},
	{name: "local", writes: 1, cfg: ccConfig, pages: 400, fill: fillCompressible, drove: []counter{cacheHits, inserts}},
	// Every fourth page is incompressible, goes down the chain and is
	// faulted back from the tier.
	{name: "tier", tier: true, cfg: ccConfig, pages: 400, fill: fillEveryFourthRandom, drove: []counter{cacheHits, remoteIns}, plain: true},
	{name: "tier", tier: true, writes: 1, cfg: ccConfig, pages: 400, fill: fillEveryFourthRandom, drove: []counter{inserts, remoteIns}},
	// The baseline machine on the direct swap file.
	{name: "direct", cfg: func() Config { return Default(mb) }, pages: 1024, fill: fillCompressible, drove: []counter{swapIns}},
	{name: "direct", writes: 1, cfg: func() Config { return Default(mb) }, pages: 1024, fill: fillCompressible, drove: []counter{swapIns}},
	// The baseline on a log with eight segments to spare, so the cleaner
	// copies live pages forward all the time.
	{name: "lfs", writes: 1, pages: 1024, fill: fillCompressible, drove: []counter{swapIns, storeGCs},
		cfg: func() Config {
			return Default(mb).WithLFS(swap.LFSConfig{SegmentBytes: 16 * 4096, MaxSegments: 72})
		}},
	// The null codec: every page misses the 4:3 threshold and travels through
	// the clustered store raw. A read-only pass leaves every page an extent
	// and the rewriting pass after it frees most of them, so the file is more
	// than half garbage once per two passes and compacts.
	{name: "clustered-null", writes: 2, pages: 384, fill: fillCompressible, drove: []counter{swapIns, storeGCs},
		cfg: func() Config {
			cfg := Default(mb).WithCC()
			cfg.CC.Codec = "null"
			return cfg
		}},
	// The cache pinned below what the working set compresses to: the cleaner
	// spills it into the clustered store, which compacts as above.
	{name: "spill", writes: 2, pages: 384, fill: fillHalfRandom, drove: []counter{cacheHits, spills, swapIns, storeGCs},
		cfg: func() Config {
			cfg := Default(mb).WithCC()
			cfg.CC.MaxFrames = 64
			return cfg
		}},
	// The default cache over a segment with its own codec, read-only: pages
	// come back from the clustered store a block at a time and what came
	// along enters the cache without compressing. A page that a cache hit
	// brought in returns four memories of evictions after it left, inside
	// the plaintext memo's window of eight, and so does one over a working
	// set that returns within one.
	{name: "prefetch", codec: "fpc", cfg: ccConfig, pages: 1024, fill: fillHalfRandom, drove: []counter{swapIns, prefetched}, plain: true},
	{name: "prefetch-recent", codec: "fpc", cfg: ccConfig, pages: 320, fill: fillHalfRandom, drove: []counter{swapIns, prefetched}, plain: true},
}

// fillHalfRandom makes every page 1.5 KB of noise over zeros: any codec
// halves it, inside the 4:3 threshold but too big for the cache to hold the
// working set.
func fillHalfRandom(s *Space) {
	rng := rand.New(rand.NewSource(11))
	page := make([]byte, 4096)
	for p := int32(0); p < s.Pages(); p++ {
		rng.Read(page[:1536])
		s.Write(int64(p)*4096, page)
	}
}

// fillEveryFourthRandom mixes compressible pages, which live in the cache,
// with incompressible ones, which go below it.
func fillEveryFourthRandom(s *Space) {
	fillCompressible(s)
	rng := rand.New(rand.NewSource(3))
	page := make([]byte, 4096)
	for p := int32(0); p < s.Pages(); p += 4 {
		rng.Read(page)
		s.Write(int64(p)*4096, page)
	}
}

// mallocs counts the heap allocations f makes the way testing.AllocsPerRun
// does — one P, the runtime's own counter before and after — but undivided:
// AllocsPerRun reports mallocs/runs in integers, so a cleaner or a compaction
// pass that allocates once each time it runs, a few times in 2000 touches,
// would read as zero. The price is that the runtime's own goroutines are
// counted too and now and then allocate an object or two. Those do not
// recur; an allocation on the paging path does, in every window that takes
// the path. So f is run again when it counted some, three times at most, and
// the last count is the answer.
func mallocs(f func()) (n uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for try := 0; try < 3; try++ {
		runtime.GC() // no collection left in flight behind f's back
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n = after.Mallocs - before.Mallocs; n == 0 {
			break
		}
	}
	return n
}

const (
	// warmPasses lets freelists, slabs and store scratch reach their working
	// size. The slowest to settle is the cache's order deque, which compacts
	// once per 1024 kills and has to have done so twice.
	warmPasses    = 16
	steadyTouches = 2048
)

// steadyCycle runs the read-only or the rewriting rows: the measured touches
// must allocate nothing and advance every counter the row names.
func steadyCycle(t *testing.T, writes bool) {
	for _, row := range steadyRows {
		if (row.writes > 0) != writes {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			var opts []Option
			if row.tier {
				opts = append(opts, WithRemote(newFakeTier()))
			}
			cfg := row.cfg()
			var cc, sc *countedCodec
			if cfg.CC.Enabled {
				cc = counted(cfg.CC.Codec)
				cfg.CC.Codec = cc.Name()
			}
			m := newMachine(t, cfg, opts...)
			var s *Space
			if bytes := int64(row.pages) * 4096; row.codec == "" {
				s = m.NewSegment("heap", bytes)
			} else {
				var err error
				sc = counted(row.codec)
				if s, err = m.NewSegmentCodec("heap", bytes, sc.Name()); err != nil {
					t.Fatal(err)
				}
			}
			row.fill(s)
			p, pass := int32(0), 0
			touch := func() {
				s.Touch(p, writes && pass%row.writes == 0)
				if p++; p == s.Pages() {
					p, pass = 0, pass+1
				}
			}
			for pass < warmPasses {
				touch()
			}
			var before stats.Run
			var ranBefore, decBefore uint64
			n := mallocs(func() {
				before = m.Stats()
				ranBefore = cc.Calls() + sc.Calls()
				decBefore = cc.Decodes() + sc.Decodes()
				for i := 0; i < steadyTouches; i++ {
					touch()
				}
			})
			if n != 0 {
				t.Errorf("%d allocations in %d steady-state touches", n, steadyTouches)
			}
			after := m.Stats()
			// What the simulated machine compressed against what the host's
			// codec ran. A page nobody has written since it was restored from
			// a compressed form re-enters the cache with that form (memo.go),
			// so a read-only row runs the codec only for pages that have none:
			// the ones that miss the keep threshold and travel raw. A row that
			// dirties every page it touches runs it for every compression.
			// A row whose pages come back from a stay begun by a cache hit
			// within eight memories' worth of evictions is copied in from the
			// plaintext memo, not decoded.
			decomps := after.Comp.Decompressions - before.Comp.Decompressions
			// A ccforget build runs the codec for every one of them.
			if decoded := cc.Decodes() + sc.Decodes() - decBefore; keepForms && row.plain && decoded >= decomps {
				t.Errorf("%d decompressions and the codec decoded %d times: the plaintext memo served none", decomps, decoded)
			}
			comps := after.Comp.Compressions - before.Comp.Compressions
			raw := after.Comp.Incompressible - before.Comp.Incompressible
			ran := cc.Calls() + sc.Calls() - ranBefore
			switch {
			case !cfg.CC.Enabled:
			case !keepForms:
				if ran != comps {
					t.Errorf("forgetful: %d compressions and the codec ran %d times; want them equal", comps, ran)
				}
			case row.writes == 0:
				if comps == raw || ran != raw {
					t.Errorf("read-only: %d compressions, %d of them incompressible, and the codec ran %d times; want it run for those alone", comps, raw, ran)
				}
			case row.writes == 1:
				if ran == 0 || ran != comps {
					t.Errorf("rewriting: %d compressions and the codec ran %d times; want them equal", comps, ran)
				}
			case ran == 0:
				t.Errorf("rewriting every other pass: %d compressions and the codec never ran", comps)
			}
			for _, c := range row.drove {
				if c.get(after) <= c.get(before) {
					t.Errorf("the measured touches never took the row's path: %s stayed at %d", c.name, c.get(after))
				}
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkNoHeldFrames(t, m)
		})
	}
}

func TestSteadyStateReadCycleZeroAllocs(t *testing.T)    { steadyCycle(t, false) }
func TestSteadyStateDirtyRewriteZeroAllocs(t *testing.T) { steadyCycle(t, true) }

// countedCodec is a registered codec that counts its compressions and
// decodes, so a row can tell the compressions and decompressions the
// simulated machine was charged for (Comp.Compressions, Comp.Decompressions)
// from the ones the host's codec actually ran. Where the codec it wraps
// decodes by prefix, the registered wrapper does too (prefixCounted). A
// decode is a Decompress call or a prefix step from a block's start, and the
// wrapper counts the bytes every decode and step produced.
type countedCodec struct {
	compress.Codec
	calls, decodes, decoded atomic.Uint64
}

func (c *countedCodec) Name() string { return "counted-" + c.Codec.Name() }

func (c *countedCodec) Compress(dst, src []byte) []byte {
	c.calls.Add(1)
	return c.Codec.Compress(dst, src)
}

func (c *countedCodec) Decompress(dst, src []byte) ([]byte, error) {
	c.decodes.Add(1)
	out, err := c.Codec.Decompress(dst, src)
	c.decoded.Add(uint64(max(len(out)-len(dst), 0)))
	return out, err
}

// prefixCounted is a countedCodec over a codec that decodes by prefix.
type prefixCounted struct{ *countedCodec }

func (c prefixCounted) DecompressPrefix(dst, src []byte, at compress.Prefix, upto int) ([]byte, compress.Prefix, error) {
	if at == (compress.Prefix{}) {
		c.decodes.Add(1)
	}
	out, next, err := c.Codec.(compress.PrefixDecoder).DecompressPrefix(dst, src, at, upto)
	c.decoded.Add(uint64(max(len(out)-len(dst), 0)))
	return out, next, err
}

// Calls reports the compressions so far; a nil codec has made none.
func (c *countedCodec) Calls() uint64 {
	if c == nil {
		return 0
	}
	return c.calls.Load()
}

// Decodes reports the decodes so far; a nil codec has made none.
func (c *countedCodec) Decodes() uint64 {
	if c == nil {
		return 0
	}
	return c.decodes.Load()
}

// Decoded reports the bytes decoded so far; a nil codec has decoded none.
func (c *countedCodec) Decoded() uint64 {
	if c == nil {
		return 0
	}
	return c.decoded.Load()
}

var countedCodecs = map[string]*countedCodec{}

// counted returns the counting wrapper of a registered codec, registering
// the wrapper on first use ("" is the machine's default, as in Config).
func counted(name string) *countedCodec {
	if name == "" {
		name = "lzrw1"
	}
	if c, ok := countedCodecs[name]; ok {
		return c
	}
	inner, err := compress.Lookup(name)
	if err != nil {
		panic(err)
	}
	c := &countedCodec{Codec: inner}
	if _, ok := inner.(compress.PrefixDecoder); ok {
		compress.Register(prefixCounted{c})
	} else {
		compress.Register(c)
	}
	countedCodecs[name] = c
	return c
}
