package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"compcache/internal/cluster"
	"compcache/internal/compress"
	"compcache/internal/core"
	"compcache/internal/disk"
	"compcache/internal/fs"
	"compcache/internal/machine"
	"compcache/internal/mem"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/policy"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/swap"
	"compcache/internal/vm"
	"compcache/internal/workload"
)

// The layer drivers time one layer at a time through its public API, on a
// fixed seeded operation stream, with everything above it absent. They are
// not a workload: nothing a user waits on is shaped like them, and a faster
// driver row justifies nothing by itself. They exist so that a change to one
// layer has a row that should move, and every other layer a row that should
// not.

// layerBatches is how many timed batches each row is the median of; one
// untimed batch runs first to page in code and grow buffers.
const layerBatches = 5

// ops scales an operation count: smoke runs a fiftieth.
func ops(sc scale, n int) int {
	if sc == smoke {
		return max(n/50, 16)
	}
	return n
}

// batchMedians runs batch once untimed and layerBatches times timed. Each
// call fills out with one value per reported row; the result is the per-row
// median.
func batchMedians(rows int, batch func(out []float64) error) ([]float64, error) {
	cols := make([][]float64, rows)
	out := make([]float64, rows)
	for i := 0; i <= layerBatches; i++ {
		if err := batch(out); err != nil {
			return nil, err
		}
		if i == 0 {
			continue
		}
		for r, v := range out {
			cols[r] = append(cols[r], v)
		}
	}
	med := make([]float64, rows)
	for r := range med {
		med[r] = median(cols[r])
	}
	return med, nil
}

// nsPerOp times fn, which performs n operations.
func nsPerOp(n int, fn func()) float64 {
	t0 := hostNow()
	fn()
	return secondsSince(t0) * 1e9 / float64(n)
}

// set stores one batchMedians result under names.
func set(m metrics, names []string, batch func(out []float64) error) error {
	med, err := batchMedians(len(names), batch)
	if err != nil {
		return fmt.Errorf("layer driver %s: %w", strings.Join(names, ","), err)
	}
	for i, n := range names {
		m[n] = med[i]
	}
	return nil
}

func runLayers(m metrics, sc scale, seed int64) error {
	for _, driver := range []func(metrics, scale, int64) error{
		codecLayers, coreLayers, vmLayers, policyLayers, storeLayers, deviceLayers,
		kernelLayers, obsLayers, machineLayers,
	} {
		if err := driver(m, sc, seed); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// compress

// captureCorpus collects page images through the traced codec from the cc
// legs of apps at smoke scale: real pages the applications evicted.
func captureCorpus(seed int64) ([][]byte, error) {
	if err := registerTracedCodecs(); err != nil {
		return nil, err
	}
	var legs []leg
	for _, l := range appsLegs(smoke, seed) {
		if strings.HasSuffix(l.name, "/cc") {
			legs = append(legs, l)
		}
	}
	tr := newTracer(1 << 16)
	tr.corpus = newCorpus(len(legs))
	activeTracer = tr
	rep := runRep(legs, tr)
	activeTracer = nil
	if rep.failed > 0 {
		return nil, fmt.Errorf("corpus capture: %d legs failed: %v", rep.failed, rep.digests)
	}
	if tr.corpus.used == 0 {
		return nil, fmt.Errorf("corpus capture: no page was compressed")
	}
	return tr.corpus.pages[:tr.corpus.used], nil
}

func codecLayers(m metrics, sc scale, seed int64) error {
	corpus, err := captureCorpus(seed)
	if err != nil {
		return err
	}
	if sc == smoke {
		corpus = corpus[:min(len(corpus), 64)]
	}
	var bytes float64
	for _, p := range corpus {
		bytes += float64(len(p))
	}
	for _, name := range codecNames {
		c, err := compress.Lookup(name)
		if err != nil {
			return err
		}
		packed := make([][]byte, len(corpus))
		for i, p := range corpus {
			packed[i] = c.Compress(nil, p)
		}
		dst := make([]byte, 0, c.MaxCompressedSize(pageSize))
		page := make([]byte, 0, pageSize)
		err = set(m, []string{"compress." + name + ".compress_mbps", "compress." + name + ".decompress_mbps"},
			func(out []float64) error {
				t0 := hostNow()
				for _, p := range corpus {
					dst = c.Compress(dst[:0], p)
				}
				out[0] = bytes / 1e6 / secondsSince(t0)
				t0 = hostNow()
				for i, p := range packed {
					var derr error
					if page, derr = c.Decompress(page[:0], p); derr != nil {
						return derr
					}
					if len(page) != len(corpus[i]) {
						return fmt.Errorf("%s: page %d decompressed to %d bytes", name, i, len(page))
					}
				}
				out[1] = bytes / 1e6 / secondsSince(t0)
				return nil
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// core

func coreLayers(m metrics, sc scale, seed int64) error {
	n := ops(sc, 2048)
	clock := &sim.Clock{}
	pool := mem.NewPool(1024, pageSize)
	c := core.New(core.DefaultParams(), clock, pool)
	c.SetHooks(func([]swap.Item) error { return nil }, func(swap.PageKey) {})
	data := make([]byte, 1000)
	rand.New(rand.NewSource(seed)).Read(data)
	key := func(i int) swap.PageKey { return swap.PageKey{Seg: 1, Page: int32(i)} }
	return set(m, []string{"core.insert_ns", "core.fault_ns", "core.clean_ns_per_page", "core.drop_ns"},
		func(out []float64) error {
			var failed error
			out[0] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					if ok, err := c.Insert(key(i), data, true); !ok || err != nil {
						failed = fmt.Errorf("insert %d refused: %v", i, err)
						return
					}
				}
			})
			if failed != nil {
				return failed
			}
			out[1] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					if _, _, _, ok := c.Fault(key(i)); !ok {
						failed = fmt.Errorf("fault %d missed", i)
						return
					}
				}
			})
			if failed != nil {
				return failed
			}
			cleaned := 0
			t0 := hostNow()
			for {
				k, err := c.Clean()
				if err != nil {
					return err
				}
				if k == 0 {
					break
				}
				cleaned += k
			}
			out[2] = secondsSince(t0) * 1e9 / float64(max(cleaned, 1))
			out[3] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					c.Drop(key(i))
				}
			})
			for {
				if more, err := c.ReleaseOldest(); err != nil || !more {
					return err
				}
			}
		})
}

// ---------------------------------------------------------------------------
// vm, sim.Clock

// nullPager is a backing store that costs nothing: pages leave and return
// with no data movement, so a fault through it is the VM's own work.
type nullPager struct{}

func (nullPager) PageOut(p *vm.Page, _ []byte) error {
	p.State, p.Dirty, p.SwapValid = vm.Swapped, false, true
	return nil
}
func (nullPager) PageIn(*vm.Page, []byte) (vm.Source, error) { return vm.SrcSwap, nil }
func (nullPager) Dirtied(*vm.Page)                           {}

// newNullVM builds a VM over frames frames whose frame source evicts its own
// oldest page when the pool runs dry.
func newNullVM(frames int) *vm.VM {
	clock := &sim.Clock{}
	pool := mem.NewPool(frames, pageSize)
	v := vm.New(clock, pool, sim.DefaultCostModel())
	v.SetPager(nullPager{})
	v.SetFrameSource(func(o mem.Owner) (mem.FrameID, error) {
		for {
			if id, ok := pool.Alloc(o); ok {
				return id, nil
			}
			if more, err := v.ReleaseOldest(); err != nil || !more {
				return mem.NoFrame, fmt.Errorf("null vm: nothing to evict: %v", err)
			}
		}
	})
	return v
}

func vmLayers(m metrics, sc scale, seed int64) error {
	n := ops(sc, 2_000_000)
	v := newNullVM(128)
	seg := v.NewSegment("hot", 64)
	for p := int32(0); p < seg.NPages; p++ {
		if _, err := v.Touch(seg, p, true); err != nil {
			return err
		}
	}
	err := set(m, []string{"vm.touch_hit_ns", "vm.readword_ns", "vm.writeword_ns"},
		func(out []float64) error {
			var failed error
			out[0] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					if _, err := v.Touch(seg, int32(i&63), false); err != nil {
						failed = err
					}
				}
			})
			var sum uint64
			out[1] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					w, err := v.ReadWord(seg, int64(i&63)*pageSize+int64(i&255)*8)
					if err != nil {
						failed = err
					}
					sum += w
				}
			})
			out[2] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					if err := v.WriteWord(seg, int64(i&63)*pageSize+int64(i&255)*8, sum+uint64(i)); err != nil {
						failed = err
					}
				}
			})
			return failed
		})
	if err != nil {
		return err
	}

	nf := ops(sc, 400_000)
	cold := newNullVM(64)
	big := cold.NewSegment("cold", 256)
	for p := int32(0); p < big.NPages; p++ {
		if _, err := cold.Touch(big, p, true); err != nil {
			return err
		}
	}
	err = set(m, []string{"vm.fault_nullpager_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(nf, func() {
			for i := 0; i < nf; i++ {
				// A cyclic sweep over four times memory under LRU: every touch faults.
				if _, err := cold.Touch(big, int32(i&255), false); err != nil {
					failed = err
				}
			}
		})
		return failed
	})
	if err != nil {
		return err
	}

	nc := ops(sc, 10_000_000)
	clock := &sim.Clock{}
	return set(m, []string{"sim.clock_advance_ns"}, func(out []float64) error {
		out[0] = nsPerOp(nc, func() {
			for i := 0; i < nc; i++ {
				clock.Advance(1)
			}
		})
		return nil
	})
}

// ---------------------------------------------------------------------------
// policy

// fifoConsumer holds frames and gives the oldest back on request: the least
// a policy.Consumer can do, so AllocFrame's own arbitration is what is timed.
type fifoConsumer struct {
	pool   *mem.Pool
	clock  *sim.Clock
	frames []mem.FrameID
	ages   []sim.Time
	head   int
}

func (c *fifoConsumer) Name() string { return "fifo" }

func (c *fifoConsumer) OldestAge() (sim.Time, bool) {
	if c.head == len(c.frames) {
		return 0, false
	}
	return c.ages[c.head], true
}

func (c *fifoConsumer) ReleaseOldest() (bool, error) {
	if c.head == len(c.frames) {
		return false, nil
	}
	c.pool.Release(c.frames[c.head])
	c.head++
	if c.head == len(c.frames) {
		c.frames, c.ages, c.head = c.frames[:0], c.ages[:0], 0
	}
	return true, nil
}

func (c *fifoConsumer) hold(id mem.FrameID) {
	c.frames = append(c.frames, id)
	c.ages = append(c.ages, c.clock.Now())
}

func policyLayers(m metrics, sc scale, _ int64) error {
	n := ops(sc, 500_000)
	clock := &sim.Clock{}
	pool := mem.NewPool(256, pageSize)
	a := policy.NewAllocator(pool, clock)
	consumers := []*fifoConsumer{{pool: pool, clock: clock}, {pool: pool, clock: clock}}
	for _, c := range consumers {
		a.Register(c, policy.Neutral)
	}
	return set(m, []string{"policy.allocframe_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				clock.Advance(1)
				id, err := a.AllocFrame(mem.VM)
				if err != nil {
					failed = err
					return
				}
				consumers[i&1].hold(id)
			}
		})
		return failed
	})
}

// ---------------------------------------------------------------------------
// swap, fs

// storeRig is a disk, a file system on it and a frame pool: what a backing
// store is built on.
type storeRig struct {
	clock *sim.Clock
	disk  *disk.Disk
	pool  *mem.Pool
	fs    *fs.FS
}

func newStoreRig() (*storeRig, error) {
	r := &storeRig{clock: &sim.Clock{}, pool: mem.NewPool(512, pageSize)}
	var err error
	if r.disk, err = disk.New(disk.RZ57(), r.clock); err != nil {
		return nil, err
	}
	r.fs, err = fs.New(fs.Options{BlockSize: pageSize}, r.disk, r.clock, r.pool)
	return r, err
}

func storeLayers(m metrics, sc scale, seed int64) error {
	n := ops(sc, 4096) &^ 7 // whole eight-page clusters
	rng := rand.New(rand.NewSource(seed))
	page := make([]byte, pageSize)
	rng.Read(page)
	frag := page[:1000]
	key := func(i int) swap.PageKey { return swap.PageKey{Seg: 0, Page: int32(i)} }
	buf := make([]byte, pageSize)

	rig, err := newStoreRig()
	if err != nil {
		return err
	}
	direct, err := swap.NewDirect(rig.fs, pageSize)
	if err != nil {
		return err
	}
	err = set(m, []string{"swap.direct_write_ns", "swap.direct_read_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := direct.Write(key(i), page); err != nil {
					failed = err
				}
			}
		})
		out[1] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if ok, err := direct.Read(key(i), buf); !ok || err != nil {
					failed = fmt.Errorf("direct read %d: %v %v", i, ok, err)
				}
			}
		})
		return failed
	})
	if err != nil {
		return err
	}

	// Clustered: eight 1000-byte fragments per write, as the cleaner batches
	// them. Every batch rewrites the same keys, so garbage builds up and the
	// store's own GC trigger runs inside the write row; the GC row times an
	// explicit pass over the n live pages.
	if rig, err = newStoreRig(); err != nil {
		return err
	}
	clustered, err := swap.NewClustered(swap.ClusterConfig{PageSize: pageSize}, rig.fs)
	if err != nil {
		return err
	}
	items := make([]swap.Item, 8)
	sum := core.Checksum(frag)
	err = set(m, []string{"swap.clustered_write_ns", "swap.clustered_read_ns", "swap.clustered_gc_ms"},
		func(out []float64) error {
			var failed error
			out[0] = nsPerOp(n, func() {
				for i := 0; i < n; i += len(items) {
					for j := range items {
						items[j] = swap.Item{Key: key(i + j), Data: frag, Compressed: true, Sum: sum}
					}
					if err := clustered.WriteCluster(items, true); err != nil {
						failed = err
					}
				}
			})
			out[1] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					if _, _, _, _, ok, err := clustered.Read(key(i)); !ok || err != nil {
						failed = fmt.Errorf("clustered read %d: %v %v", i, ok, err)
					}
				}
			})
			t0 := hostNow()
			if err := clustered.GC(); err != nil {
				failed = err
			}
			out[2] = secondsSince(t0) * 1e3
			return failed
		})
	if err != nil {
		return err
	}

	if rig, err = newStoreRig(); err != nil {
		return err
	}
	lfs, err := swap.NewLFS(swap.LFSConfig{PageSize: pageSize}, rig.fs, rig.pool)
	if err != nil {
		return err
	}
	err = set(m, []string{"swap.lfs_write_ns", "swap.lfs_read_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := lfs.Write(key(i), page); err != nil {
					failed = err
				}
			}
		})
		out[1] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if ok, err := lfs.Read(key(i), buf); !ok || err != nil {
					failed = fmt.Errorf("lfs read %d: %v %v", i, ok, err)
				}
			}
		})
		return failed
	})
	if err != nil {
		return err
	}

	if err := recoveryLayers(m, n, page, frag, key); err != nil {
		return err
	}

	if rig, err = newStoreRig(); err != nil {
		return err
	}
	file := rig.fs.Create("raw")
	return set(m, []string{"fs.rawwrite_ns", "fs.rawread_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := file.RawWrite(page, int64(i)*pageSize, pageSize); err != nil {
					failed = err
				}
			}
		})
		out[1] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := file.RawRead(buf, int64(i)*pageSize, pageSize); err != nil {
					failed = err
				}
			}
		})
		return failed
	})
}

// recoveryLayers times the two mount-time recovery scans over a media image
// holding n pages in the recoverable formats.
func recoveryLayers(m metrics, n int, page, frag []byte, key func(int) swap.PageKey) error {
	ccfg := swap.ClusterConfig{PageSize: pageSize, CommitRecords: true}
	rig, err := newStoreRig()
	if err != nil {
		return err
	}
	clustered, err := swap.NewClustered(ccfg, rig.fs)
	if err != nil {
		return err
	}
	items := make([]swap.Item, 8)
	for i := 0; i < n; i += len(items) {
		for j := range items {
			items[j] = swap.Item{Key: key(i + j), Data: frag, Compressed: true, Sum: core.Checksum(frag)}
		}
		if err := clustered.WriteCluster(items, false); err != nil {
			return err
		}
	}
	cimg := rig.fs.Image()

	lcfg := swap.LFSConfig{PageSize: pageSize, Durable: true}
	if rig, err = newStoreRig(); err != nil {
		return err
	}
	lfs, err := swap.NewLFS(lcfg, rig.fs, rig.pool)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := lfs.Write(key(i), page); err != nil {
			return err
		}
	}
	if err := lfs.Flush(); err != nil {
		return err
	}
	rig.disk.Drain()
	limg := rig.fs.Image()

	return set(m, []string{"swap.recover_clustered_ms", "swap.recover_lfs_ms"}, func(out []float64) error {
		crig, err := newStoreRig()
		if err != nil {
			return err
		}
		if err := crig.fs.LoadImage(cimg); err != nil {
			return err
		}
		t0 := hostNow()
		_, rep, err := swap.RecoverClustered(ccfg, crig.fs, nil, crig.clock)
		out[0] = secondsSince(t0) * 1e3
		if err != nil {
			return err
		}
		if rep.RecoveredPages != n {
			return fmt.Errorf("clustered recovery found %d of %d pages", rep.RecoveredPages, n)
		}
		lrig, err := newStoreRig()
		if err != nil {
			return err
		}
		if err := lrig.fs.LoadImage(limg); err != nil {
			return err
		}
		t0 = hostNow()
		_, rep, err = swap.RecoverLFS(lcfg, lrig.fs, lrig.pool, nil, lrig.clock)
		out[1] = secondsSince(t0) * 1e3
		if err != nil {
			return err
		}
		if rep.RecoveredPages != n {
			return fmt.Errorf("lfs recovery found %d of %d pages", rep.RecoveredPages, n)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// disk, netdev, cluster.Server

func deviceLayers(m metrics, sc scale, seed int64) error {
	n := ops(sc, 1_000_000)
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = int64(rng.Intn(1<<18)) * pageSize
	}
	clock := &sim.Clock{}
	d, err := disk.New(disk.RZ57(), clock)
	if err != nil {
		return err
	}
	err = set(m, []string{"disk.read_ns", "disk.write_ns", "disk.write_async_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := d.Read(addrs[i&4095], pageSize); err != nil {
					failed = err
				}
			}
		})
		out[1] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := d.Write(addrs[i&4095], pageSize); err != nil {
					failed = err
				}
			}
		})
		out[2] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if _, err := d.WriteAsync(addrs[i&4095], pageSize); err != nil {
					failed = err
				}
			}
			d.Drain()
		})
		return failed
	})
	if err != nil {
		return err
	}

	net, err := netdev.New(netdev.Ethernet10(), &sim.Clock{})
	if err != nil {
		return err
	}
	err = set(m, []string{"netdev.read_ns", "netdev.write_ns"}, func(out []float64) error {
		var failed error
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := net.Read(addrs[i&4095], pageSize); err != nil {
					failed = err
				}
			}
		})
		out[1] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if err := net.Write(addrs[i&4095], pageSize); err != nil {
					failed = err
				}
			}
		})
		return failed
	})
	if err != nil {
		return err
	}

	// The server sees a fleet's mix: placements, reads of recent and of
	// demoted addresses, and pure forwards.
	srv := cluster.NewServer(cluster.DefaultServerConfig())
	var now sim.Time
	return set(m, []string{"cluster.server_admit_ns"}, func(out []float64) error {
		out[0] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				addr := addrs[i&4095]
				switch i & 3 {
				case 0:
					now = srv.Admit(now, addr, 1500, true)
				case 3:
					now = srv.Admit(now, -1, 1500, false)
				default:
					now = srv.Admit(now, addr, 1500, false)
				}
			}
		})
		return nil
	})
}

// ---------------------------------------------------------------------------
// sim.Kernel

func kernelLayers(m metrics, sc scale, _ int64) error {
	n := ops(sc, 2_000_000)
	err := set(m, []string{"sim.clock_advance_attached_ns"}, func(out []float64) error {
		k := sim.NewKernel()
		c := k.NewClock(0)
		k.Go(0, func() {
			for i := 0; i < n; i++ {
				c.Advance(1)
			}
		})
		t0 := hostNow()
		k.Run()
		out[0] = secondsSince(t0) * 1e9 / float64(n)
		return nil
	})
	if err != nil {
		return err
	}

	// Two actors whose wake-ups interleave one for one, so every wait finds
	// the other actor's event earlier on the heap and hands the baton over.
	nh := ops(sc, 200_000)
	err = set(m, []string{"sim.kernel_handoff_ns"}, func(out []float64) error {
		k := sim.NewKernel()
		a, b := k.NewClock(0), k.NewClock(1)
		k.Go(0, func() {
			for i := 0; i < nh; i++ {
				a.Advance(2)
			}
		})
		k.Go(1, func() {
			b.Advance(1)
			for i := 0; i < nh; i++ {
				b.Advance(2)
			}
		})
		t0 := hostNow()
		k.Run()
		out[0] = secondsSince(t0) * 1e9 / float64(2*nh)
		return nil
	})
	if err != nil {
		return err
	}

	ns := ops(sc, 500_000)
	return set(m, []string{"sim.kernel_schedule_ns"}, func(out []float64) error {
		k := sim.NewKernel()
		fired := 0
		t0 := hostNow()
		for i := 0; i < ns; i++ {
			k.Schedule(sim.Time(i%1000), 0, func(sim.Time) { fired++ })
		}
		k.Run()
		out[0] = secondsSince(t0) * 1e9 / float64(ns)
		if fired != ns {
			return fmt.Errorf("kernel ran %d of %d timers", fired, ns)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// obs

// countWriter counts the bytes written to it.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func obsLayers(m metrics, sc scale, _ int64) error {
	n := ops(sc, 2_000_000)
	on := obs.NewBus(obs.Options{})
	off := obs.NewBus(obs.Options{Classes: obs.ClassRetry})
	hist := on.Histogram("bench.latency")
	ev := obs.Event{Class: obs.ClassFault, Sub: obs.SubVM, Seg: 1, Dur: 700 * time.Microsecond}
	// emit is a probe site as the simulator writes them: test the mask, then
	// build and emit the event.
	emit := func(b *obs.Bus) func() {
		return func() {
			for i := 0; i < n; i++ {
				if b.Enabled(obs.ClassFault) {
					ev.T, ev.Page = sim.Time(i), int32(i)
					b.Emit(ev)
				}
			}
		}
	}
	return set(m, []string{"obs.emit_enabled_ns", "obs.emit_disabled_ns", "obs.observe_ns", "obs.export_jsonl_mbps"},
		func(out []float64) error {
			out[0] = nsPerOp(n, emit(on))
			out[1] = nsPerOp(n, emit(off))
			out[2] = nsPerOp(n, func() {
				for i := 0; i < n; i++ {
					hist.Observe(time.Duration(i&1023) * time.Microsecond)
				}
			})
			var w countWriter
			t0 := hostNow()
			err := obs.WriteEventsJSONL(&w, on.Events())
			out[3] = float64(w.n) / 1e6 / secondsSince(t0)
			return err
		})
}

// ---------------------------------------------------------------------------
// machine, snap

func machineLayers(m metrics, sc scale, seed int64) error {
	cfg := machine.Default(1 << 20).WithCC()
	err := set(m, []string{"machine.new_ms", "machine.new_alloc_mb"}, func(out []float64) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := hostNow()
		_, err := machine.New(cfg)
		out[0] = secondsSince(t0) * 1e3
		runtime.ReadMemStats(&after)
		out[1] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		return err
	})
	if err != nil {
		return err
	}

	// A paging machine in mid-run: the state a snapshot has to carry.
	mach, err := machine.New(cfg)
	if err != nil {
		return err
	}
	if err := (&workload.Thrasher{Pages: 1024, Write: true, Passes: 1, Seed: seed}).Run(mach); err != nil {
		return err
	}
	if err := mach.Err(); err != nil {
		return err
	}
	err = set(m, []string{"machine.snapshot_ms", "machine.snapshot_kb", "machine.restore_ms"}, func(out []float64) error {
		t0 := hostNow()
		img, err := mach.Snapshot()
		out[0] = secondsSince(t0) * 1e3
		if err != nil {
			return err
		}
		out[1] = float64(len(img)) / 1024
		t0 = hostNow()
		_, err = machine.Restore(cfg, img)
		out[2] = secondsSince(t0) * 1e3
		return err
	})
	if err != nil {
		return err
	}

	// The snapshot primitives on the field mix the subsystems write: mostly
	// fixed-width integers, with page-sized byte strings between them.
	n := ops(sc, 200_000)
	page := make([]byte, pageSize)
	rand.New(rand.NewSource(seed)).Read(page)
	return set(m, []string{"snap.encode_mbps", "snap.decode_mbps"}, func(out []float64) error {
		t0 := hostNow()
		w := snap.NewWriter()
		for i := 0; i < n; i++ {
			w.U64(uint64(i))
			w.I32(int32(i))
			w.Bool(i&1 == 0)
			if i&63 == 0 {
				w.Bytes32(page)
			}
		}
		img, err := w.Bytes()
		out[0] = float64(len(img)) / 1e6 / secondsSince(t0)
		if err != nil {
			return err
		}
		t0 = hostNow()
		r, err := snap.NewReader(img)
		if err != nil {
			return err
		}
		var sum uint64
		for i := 0; i < n; i++ {
			sum += r.U64() + uint64(r.I32())
			r.Bool()
			if i&63 == 0 {
				sum += uint64(len(r.Bytes32()))
			}
		}
		out[1] = float64(len(img)) / 1e6 / secondsSince(t0)
		if err := r.Close(); err != nil {
			return err
		}
		if sum == 0 {
			return fmt.Errorf("snap: decoded nothing")
		}
		return nil
	})
}
