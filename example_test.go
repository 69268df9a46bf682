package compcache_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"compcache"
	"compcache/internal/cluster"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/obs"
)

// verdict names a speedup's class the way Table 1 reads it: above 1 the
// compression cache wins, below 1 it gets in the way.
func verdict(speedup float64) string {
	switch {
	case speedup > 1:
		return "cc wins"
	case speedup < 1:
		return "cc loses"
	}
	return "even"
}

// Two simulated machines — one unmodified, one with the compression cache —
// run the same memory-hungry loop, and every page's tag is read back intact.
func Example_quickstart() {
	const memory = 4 << 20      // 4 MB of physical memory for user pages
	const workingSet = 12 << 20 // a 12 MB address space: 3x memory

	run := func(cfg compcache.Config) *compcache.Machine {
		m, err := compcache.New(cfg)
		if err != nil {
			panic(err)
		}
		heap := m.NewSegment("heap", workingSet)

		// Tag every page, then sweep it twice reading the tags back. Pages
		// hold mostly-zero content, so they compress well — the
		// compression cache's happy case.
		tag := func(p int32) uint64 { return uint64(p) * 2654435761 }
		for p := int32(0); p < heap.Pages(); p++ {
			heap.WriteWord(int64(p)*4096, tag(p))
		}
		for pass := 0; pass < 2; pass++ {
			for p := int32(0); p < heap.Pages(); p++ {
				if got := heap.ReadWord(int64(p) * 4096); got != tag(p) {
					panic(fmt.Sprintf("page %d corrupted: %#x", p, got))
				}
			}
		}
		m.Drain()
		return m
	}

	base := run(compcache.Default(memory)).Stats()
	cc := run(compcache.Default(memory).WithCC()).Stats()
	fmt.Printf("--- unmodified system ---\n%s\n", base)
	fmt.Printf("--- with compression cache ---\n%s\n", cc)

	speedup := float64(base.Time) / float64(cc.Time)
	fmt.Printf("speedup %.2fx, %s (virtual time %v -> %v)\n", speedup, verdict(speedup), base.Time, cc.Time)
	fmt.Printf("disk reads: %d -> %d\n", base.Disk.Reads, cc.Disk.Reads)
	// Output:
	// --- unmodified system ---
	// time            2m8.211352s
	// refs            9216 (avg 13.911822ms/ref)
	// faults          9216 (cold 3072, cc-hit 0, swap-in 6144)
	// evictions       8192 (writebacks 3072)
	// compressions    0 (ratio 1.00, uncompressible 0.0%)
	// decompressions  0
	// cc              inserts 0 hits 0 misses 0 (hit rate 0.0%)
	// disk            6144 reads / 3072 writes, 24.0MB in / 12.0MB out, busy 2m3.39676s
	// swap            3072 pages out / 6144 pages in, 0 GCs
	//
	// --- with compression cache ---
	// time            1m1.73433425s
	// refs            9216 (avg 6.698603ms/ref)
	// faults          9216 (cold 3072, cc-hit 5221, swap-in 923)
	// evictions       8465 (writebacks 3072)
	// compressions    6733 (ratio 0.12, uncompressible 0.0%)
	// decompressions  6144
	// cc              inserts 9200 hits 5221 misses 923 (hit rate 85.0%)
	// disk            1216 reads / 184 writes, 4.8MB in / 3.7MB out, busy 19.6336s
	// swap            3072 pages out / 923 pages in, 6 GCs
	//
	// speedup 2.08x, cc wins (virtual time 2m8.211352s -> 1m1.73433425s)
	// disk reads: 6144 -> 1216
}

// The paper's §5.1 maximum-improvement experiment: thrasher sweeps
// address-space size on a small machine, read-write and read-only, with and
// without the cache (Figure 3; ccbench -run fig3 prints both panels, and
// with -scale paper sweeps the paper's 2-40 MB on a 6 MB machine).
func Example_thrasher() {
	res, err := compcache.Fig3(context.Background(), compcache.ExperimentOptions{Scale: compcache.SmallScale})
	if err != nil {
		panic(err)
	}
	fmt.Printf("thrasher sweep, %d MB user memory\n", res.MemoryMB)
	fmt.Printf("%-8s  %-9s  %-9s  %-6s  %-6s  %s\n", "size(MB)", "std_rw", "cc_rw", "rw", "ro", "class")
	for _, p := range res.Points {
		fmt.Printf("%-8d  %-9v  %-9v  %-6.2f  %-6.2f  %s\n", p.SizeMB,
			p.StdRW.Round(time.Microsecond), p.CCRW.Round(time.Microsecond), p.SpeedRW, p.SpeedRO, verdict(p.SpeedRW))
	}
	// Output:
	// thrasher sweep, 2 MB user memory
	// size(MB)  std_rw     cc_rw      rw      ro      class
	// 1         167µs      167µs      1.00    1.00    even
	// 2         167µs      167µs      1.00    1.00    even
	// 3         36.854ms   5.912ms    6.23    4.85    cc wins
	// 4         37.024ms   5.814ms    6.37    3.09    cc wins
	// 6         37.194ms   12.368ms   3.01    1.41    cc wins
	// 8         37.279ms   12.243ms   3.04    1.34    cc wins
}

// The paper's best-case application (compare, 2.68x): diffing two similar
// files with a banded dynamic-programming edit distance whose working array
// is twice physical memory.
func Example_filediff() {
	const n, band, memMB = 4096, 512, 1

	fmt.Printf("diffing two %d-element files; DP band array %.1f MB vs %d MB of memory\n",
		n, float64(n)*band/(1<<20), memMB)
	base := compcache.Default(memMB << 20)
	cmp, err := compcache.RunBoth(base, base.WithCC(),
		&compcache.Compare{N: n, Band: band, MutationRate: 0.05, Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("unmodified system:       %v\n", cmp.Std.Time)
	fmt.Printf("with compression cache:  %v\n", cmp.CC.Time)
	fmt.Printf("speedup:                 %.2fx, %s (paper: 2.68x)\n", cmp.Speedup(), verdict(cmp.Speedup()))
	fmt.Printf("the band array compressed to %.0f%% of its size; %.1f%% of pages missed the 4:3 threshold\n",
		100*cmp.CC.Comp.Ratio(), 100*cmp.CC.Comp.UncompressibleFrac())
	fmt.Printf("cache hits served %.0f%% of faults\n", 100*cmp.CC.CC.HitRate())
	// Output:
	// diffing two 4096-element files; DP band array 2.0 MB vs 1 MB of memory
	// unmodified system:       18.435164s
	// with compression cache:  7.81227s
	// speedup:                 2.36x, cc wins (paper: 2.68x)
	// the band array compressed to 16% of its size; 0.4% of pages missed the 4:3 threshold
	// cache hits served 99% of faults
}

// The paper's losing case: a main-memory inverted-index database (the Gold
// Mailer's index engine) whose pages compress barely 2:1 and whose queries
// fault nonsequentially. Each fault still needs a full 4-KByte read from
// the backing store, so the cache's smaller uncompressed memory costs more
// faults than its hits save (§5.2; Table 1: 0.90x / 0.80x / 0.73x).
func Example_dbindex() {
	const messages, memMB = 3000, 1

	base := compcache.Default(memMB << 20)
	fmt.Printf("%-7s  %-10s  %-10s  %-7s  %-5s  %-6s  %s\n",
		"phase", "std", "cc", "speedup", "paper", "ratio%", "class")
	for _, p := range []struct {
		gold  compcache.Gold
		paper float64
	}{
		{compcache.Gold{Phase: compcache.GoldCreate}, 0.90},
		{compcache.Gold{Phase: compcache.GoldCold}, 0.80},
		{compcache.Gold{Phase: compcache.GoldWarm}, 0.73},
	} {
		w := p.gold
		w.Messages, w.WordsPerMessage, w.VocabWords = messages, 24, 3000
		w.Queries, w.Seed = messages/2, 11
		cmp, err := compcache.RunBoth(base, base.WithCC(), &w)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-7s  %-10v  %-10v  %-7.2f  %-5.2f  %-6.0f  %s\n",
			w.Phase, cmp.Std.Time.Round(time.Millisecond), cmp.CC.Time.Round(time.Millisecond),
			cmp.Speedup(), p.paper, 100*cmp.CC.Comp.Ratio(), verdict(cmp.Speedup()))
	}
	// Output:
	// phase    std         cc          speedup  paper  ratio%  class
	// create   12.576s     29.281s     0.43     0.90   41      cc loses
	// cold     1m3.641s    1m20.282s   0.79     0.80   41      cc loses
	// warm     58.142s     1m6.519s    0.87     0.73   41      cc loses
}

// The paper's §1 pitch: a small-memory diskless mobile computer paging over
// a slow wireless network, against the same machine with a local disk. The
// slower the backing store, the more each avoided transfer is worth.
func Example_mobile() {
	const memMB, sizeMB = 2, 5

	fmt.Printf("%-34s  %-10s  %-10s  %-7s  %s\n", "machine", "std", "cc", "speedup", "class")
	for _, c := range []struct {
		name string
		cfg  compcache.Config
	}{
		{"workstation (RZ57 local disk)", compcache.Default(memMB << 20)},
		{"mobile (2-Mbps wireless, diskless)", compcache.Default(memMB << 20).WithNetwork(compcache.Wireless2())},
	} {
		// A read-mostly sweep: after the initial load every fault the
		// cache absorbs is a network or disk read avoided.
		cmp, err := compcache.RunBoth(c.cfg, c.cfg.WithCC(),
			&compcache.Thrasher{Pages: sizeMB << 20 / 4096, Passes: 3, Seed: 9})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-34s  %-10v  %-10v  %-7.2f  %s\n",
			c.name, cmp.Std.Time.Round(time.Millisecond), cmp.CC.Time.Round(time.Millisecond), cmp.Speedup(), verdict(cmp.Speedup()))
	}
	// Output:
	// machine                             std         cc          speedup  class
	// workstation (RZ57 local disk)       1m12.901s   51.684s     1.41     cc wins
	// mobile (2-Mbps wireless, diskless)  2m48.751s   1m39.92s    1.69     cc wins
}

// The §1/§6 scenario scaled out: diskless machines paging over one link to
// a shared page server with its own compressed swap tier, all co-advancing
// on one discrete-event kernel. Machines under memory pressure migrate
// pages into siblings' donated memory before spilling to the server, and
// the whole fleet queues on the server's serial timeline, so contention
// shows up as a stretched fault-latency tail. The schedule is the kernel's,
// not the host's: the output is the same at any GOMAXPROCS.
func Example_fleet() {
	const machines, memMB = 3, 1

	c, err := cluster.New(cluster.Config{
		Machines:       machines,
		MemoryBytes:    memMB << 20,
		Link:           netdev.Ethernet10(),
		Seed:           1,
		DonationFrames: 16,
		Obs:            &obs.Options{},
	})
	if err != nil {
		panic(err)
	}

	// Each member writes a tagged working set 3x its physical memory (so
	// every eviction must leave the machine), then sweeps it back in a
	// shuffled order, checking every tag survived the trip through a
	// sibling's memory or the server tier.
	pages := int32(3 * (memMB << 20) / 4096)
	spaces := make([]*machine.Space, c.Size())
	rngs := make([]*rand.Rand, c.Size())
	corrupted := make([]int, c.Size())
	for i := 0; i < c.Size(); i++ {
		seed := c.SeedFor(i)
		c.Go(i, func(m *machine.Machine) {
			rng := rand.New(rand.NewSource(seed))
			ps := int64(m.Config().PageSize)
			s := m.NewSegment("fleet", int64(pages)*ps)
			buf := make([]byte, ps)
			for p := int32(0); p < pages; p++ {
				rng.Read(buf)
				s.Write(int64(p)*ps, buf)
				s.WriteWord(int64(p)*ps, uint64(seed)^uint64(p))
			}
			spaces[i], rngs[i] = s, rng
		})
	}
	c.Run()
	for i := 0; i < c.Size(); i++ {
		seed := c.SeedFor(i)
		c.Go(i, func(m *machine.Machine) {
			ps := int64(m.Config().PageSize)
			for _, p := range rngs[i].Perm(int(pages)) {
				if spaces[i].ReadWord(int64(p)*ps) != uint64(seed)^uint64(p) {
					corrupted[i]++
				}
			}
		})
	}
	c.Run()
	if err := c.Err(); err != nil {
		panic(err)
	}

	for i := 0; i < c.Size(); i++ {
		m := c.Machine(i)
		st := m.Stats()
		fmt.Printf("machine %d: %d faults, %d served from fleet memory, %d of %d pages corrupted\n",
			i, st.VM.Faults, st.VM.RemoteIns, corrupted[i], pages)
		if h, ok := m.Metrics().Hist("vm.fault_service"); ok {
			fmt.Printf("  fault service: count=%d mean=%v max=%v\n", h.Count, h.Mean(), h.Max)
		}
	}
	srv := c.Server().Stats()
	fmt.Printf("server: %d ops, %d forwards, %d tier hits, %d tier misses, %d demotions\n",
		srv.Ops, srv.Forwards, srv.TierHits, srv.TierMiss, srv.Demotions)
	fmt.Printf("fleet virtual time: %v\n", c.Kernel.Now())
	// Output:
	// machine 0: 1499 faults, 731 served from fleet memory, 0 of 768 pages corrupted
	//   fault service: count=1499 mean=85.176524ms max=19.09779035s
	// machine 1: 1495 faults, 727 served from fleet memory, 0 of 768 pages corrupted
	//   fault service: count=1495 mean=85.256943ms max=19.0977896s
	// machine 2: 1491 faults, 723 served from fleet memory, 0 of 768 pages corrupted
	//   fault service: count=1491 mean=85.574392ms max=19.0259482s
	// server: 4485 ops, 96 forwards, 157 tier hits, 1976 tier misses, 3720 demotions
	// fleet virtual time: 2m7.68018685s
}

// Every table, figure, ablation and extension study is one registry entry —
// a name and a function of the shared options — dispatched by name
// (ccbench -list / -run).
func Example_experiments() {
	fmt.Println(len(compcache.Experiments()), "experiments registered")
	e, ok := compcache.LookupExperiment("ext/model-validation")
	if !ok {
		panic("ext/model-validation is not registered")
	}
	res, err := e.Run(context.Background(), compcache.ExperimentOptions{Scale: compcache.SmallScale})
	if err != nil {
		panic(err)
	}
	for _, t := range res.Tables() {
		fmt.Printf("# %s\n%s", t.Title, t.CSV())
	}
	// Output:
	// 22 experiments registered
	// # Validation: Figure 1(b) analytic model vs the full simulator (W = 2M, ratio ~0.25)
	// case,model speedup,simulated speedup,ratio
	// read-write,8.76,6.75,0.77
	// read-only,5.82,3.79,0.65
}

// The deterministic observability layer: attach it with WithObs, run, and
// read the virtual-time event stream and the metrics registry back (the
// ccsim command shows the same as -events, -timeline and -summary).
func Example_observability() {
	faults, err := compcache.ParseEventClasses("fault")
	if err != nil {
		panic(err)
	}
	m, err := compcache.New(compcache.Default(1<<20).WithCC(),
		compcache.WithObs(compcache.ObsOptions{Classes: faults}))
	if err != nil {
		panic(err)
	}
	heap := m.NewSegment("heap", 4<<20)
	for p := int32(0); p < heap.Pages(); p++ {
		heap.WriteWord(int64(p)*4096, uint64(p))
	}

	events := m.Events()
	fmt.Println(len(events), "fault events; the first two:")
	if err := compcache.WriteEventsJSONL(os.Stdout, events[:2]); err != nil {
		panic(err)
	}
	h, _ := m.Metrics().Hist("vm.fault_service")
	fmt.Printf("vm.fault_service: count=%d mean=%v max=%v\n", h.Count, h.Mean(), h.Max)
	// Output:
	// 1024 fault events; the first two:
	// {"t":500250,"class":"fault","sub":"vm","seg":0,"page":0,"bytes":0,"dur":500000,"aux":0}
	// {"t":1000500,"class":"fault","sub":"vm","seg":0,"page":1,"bytes":0,"dur":500000,"aux":0}
	// vm.fault_service: count=1024 mean=4.460603ms max=340.08975ms
}
