package exp

import (
	"context"
	"fmt"
	"time"

	"compcache/internal/disk"
	"compcache/internal/machine"
	"compcache/internal/model"
	"compcache/internal/netdev"
	"compcache/internal/runner"
	"compcache/internal/stats"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

// Extension experiments quantify §6's claims about when compressed paging
// will matter more: "hardware compression, which would improve the
// disparity between compression speeds and I/O rates; faster processors,
// which would do the same thing for software compression; and slower
// backing stores, such as wireless networks." Like the ablations, each
// builds its grid of independent runs up front and fans them out across up
// to Options.Parallelism machines (0 = one per core, 1 = serial), with rows
// assembled in grid order so the output is byte-identical at any
// parallelism.

// backingStoreSweep runs the same over-committed thrasher against four
// backing stores, from a fast disk to the paper's mobile wireless scenario,
// measuring how the compression cache's advantage grows as the backing
// store slows.
func backingStoreSweep(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	t := &Table{
		Title:  "Extension: speedup vs backing-store speed (§6 'slower backing stores, such as wireless networks')",
		Header: []string{"backing store", "std time", "cc time", "speedup"},
		Note: "Read-mostly, fits-compressed working set. For write-heavy working sets that spill past the\n" +
			"cache, slow bandwidth-limited links can invert the result: swap rewrites and garbage collection\n" +
			"cost more than the avoided reads save.",
	}
	fast := disk.RZ57()
	fast.BytesPerSec = 4e6
	fast.SeekAvg = 8 * time.Millisecond
	fast.RotLatency = 4 * time.Millisecond

	type backing struct {
		name string
		mk   func(machine.Config) machine.Config
	}
	// Ordered from the fastest backing store to the slowest; note the
	// paper's own §3 footnote holds here too: paging over a 10-Mbps
	// Ethernet to a page server is faster than the local RZ57.
	cases := []backing{
		{"10-Mbps Ethernet page server", func(c machine.Config) machine.Config {
			return c.WithNetwork(netdev.Ethernet10())
		}},
		{"fast disk (4 MB/s, 8 ms seek)", func(c machine.Config) machine.Config {
			c.Disk = fast
			return c
		}},
		{"RZ57 local disk (paper)", func(c machine.Config) machine.Config { return c }},
		{"2-Mbps wireless page server", func(c machine.Config) machine.Config {
			return c.WithNetwork(netdev.Wireless2())
		}},
	}
	// Read-mostly thrasher whose working set fits once compressed: the
	// cache converts every backing-store read into a decompression, so its
	// advantage scales directly with how slow the backing store is (the §6
	// claim). Write-heavy spilling workloads behave differently — see the
	// note the table prints.
	w := &workload.Thrasher{Pages: pages, Write: false, Passes: 3,
		CompressTarget: 0.15, Seed: 1}
	var jobs []job
	for _, b := range cases {
		base := b.mk(machine.Default(int64(memoryMB) << 20))
		jobs = append(jobs, job{base, w}, job{base.WithCC(), w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for bi, b := range cases {
		cmp := workload.Comparison{Std: runs[2*bi], CC: runs[2*bi+1]}
		t.AddRow(b.name, fmtDur(cmp.Std.Time), fmtDur(cmp.CC.Time),
			fmt.Sprintf("%.2f", cmp.Speedup()))
	}
	return t, nil
}

// compressionSpeedSweep varies the compression bandwidth from half the
// paper's software speed up to hardware-class speeds, holding the disk
// fixed — the other §6 axis. Decompression tracks at 2x as throughout.
func compressionSpeedSweep(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	t := &Table{
		Title:  "Extension: speedup vs compression speed (§6 'hardware compression / faster processors')",
		Header: []string{"compression speed", "std time", "cc time", "speedup"},
		Note:   "The paper's DECstation compresses ~1 MB/s in software; 10-40 MB/s models a hardware engine.",
	}
	w := &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: 1}
	base := machine.Default(int64(memoryMB) << 20)
	bws := []float64{0.5e6, 1e6, 4e6, 10e6, 40e6}
	jobs := []job{{base, w}} // the shared baseline runs as job 0
	for _, bw := range bws {
		cfg := base.WithCC()
		cfg.Cost.CompressBW = bw
		cfg.Cost.DecompressBW = 2 * bw
		jobs = append(jobs, job{cfg, w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	std := runs[0]
	for i, bw := range bws {
		cc := runs[i+1]
		label := fmt.Sprintf("%.1f MB/s software", bw/1e6)
		if bw > 2e6 {
			label = fmt.Sprintf("%.0f MB/s (hardware-class)", bw/1e6)
		}
		if bw == 1e6 {
			label = "1.0 MB/s software (paper)"
		}
		t.AddRow(label, fmtDur(std.Time), fmtDur(cc.Time),
			fmt.Sprintf("%.2f", float64(std.Time)/float64(cc.Time)))
	}
	return t, nil
}

// mobileScenario is the paper's §1 pitch run end-to-end: a small-memory
// mobile computer paging over wireless, running the application mix, with
// and without the compression cache.
func mobileScenario(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	const seed = 1
	t := &Table{
		Title:  "Extension: the §1 mobile scenario — small memory, wireless paging",
		Header: []string{"workload", "std time", "cc time", "speedup"},
	}
	msgs := memoryMB << 20 / 128
	loads := []workload.Workload{
		&workload.Thrasher{Pages: int32(memoryMB * 512), Write: true, Passes: 2, Seed: seed},
		&workload.Compare{N: memoryMB << 20 / 384, Band: 384, Seed: seed},
		&workload.Gold{Messages: msgs, WordsPerMessage: 24, VocabWords: 3000,
			Queries: msgs / 3, Phase: workload.GoldWarm, Seed: seed},
	}
	var jobs []job
	for _, w := range loads {
		base := machine.Default(int64(memoryMB) << 20).WithNetwork(netdev.Wireless2())
		jobs = append(jobs, job{base, w}, job{base.WithCC(), w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range loads {
		cmp := workload.Comparison{Std: runs[2*wi], CC: runs[2*wi+1]}
		t.AddRow(w.Name(), fmtDur(cmp.Std.Time), fmtDur(cmp.CC.Time),
			fmt.Sprintf("%.2f", cmp.Speedup()))
	}
	return t, nil
}

// advisoryPinning quantifies §3's comparison between application advisories
// and the compression cache: for the cyclic workload, pinning part of the
// working set caps LRU's pathology ("half the pages could effectively be
// pinned in memory with faults occurring only on the other half"), but
// "with fast compression, even reducing I/O by a factor of two will be
// inferior to keeping all pages compressed in memory".
func advisoryPinning(ctx context.Context, o Options) (Result, error) {
	memoryMB, ws := o.sizing()
	pages := ws / 3 * 2
	t := &Table{
		Title:  "Extension: §3 advisory pinning vs the compression cache (cyclic read-only sweep, 2x memory)",
		Header: []string{"system", "time", "faults", "speedup vs std"},
	}
	base := machine.Default(int64(memoryMB) << 20)
	cases := []struct {
		name string
		cfg  machine.Config
		pin  float64
	}{
		{"unmodified LRU", base, 0},
		{"unmodified + pin half the working set", base, 0.5},
		{"compression cache", base.WithCC(), 0},
	}
	var jobs []job
	for _, c := range cases {
		jobs = append(jobs, job{c.cfg, &workload.Thrasher{
			Pages: pages, Write: false, Passes: 3, PinFraction: c.pin, Seed: 1}})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	stdTime := runs[0].Time
	for i, c := range cases {
		st := runs[i]
		t.AddRow(c.name, fmtDur(st.Time), fmt.Sprint(st.VM.Faults),
			fmt.Sprintf("%.2f", float64(stdTime)/float64(st.Time)))
	}
	return t, nil
}

// compressedFileCache measures §6's file-system extension: evicted buffer
// cache blocks retained in compressed form, against the plain buffer cache,
// on a cyclic file-scan working set larger than memory. The two machines
// need more than a stats block (the compressed-cache hit counter lives on
// the file system), so this one drives the runner directly.
func compressedFileCache(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	t := &Table{
		Title:  "Extension: compressed file buffer cache (§6)",
		Header: []string{"file cache", "time", "device reads", "compressed-cache hits"},
	}
	// A file at 2x memory whose blocks compress ~8:1: compressed, the whole
	// file fits in memory, which is precisely when §6 expects the win.
	fileBytes := int64(memoryMB) << 20 * 2
	type fcRun struct {
		st   stats.Run
		hits uint64
	}
	modes := []bool{false, true}
	runs, err := runner.Map(ctx, o.Parallelism, len(modes),
		func(_ context.Context, i int) (fcRun, error) {
			enabled := modes[i]
			cfg := machine.Default(int64(memoryMB) << 20).WithCC()
			cfg.CC.FileCache = enabled
			// File blocks are re-read in place rather than dirtied, so
			// LRU-like entry aging (rather than the paper's FIFO) is what
			// keeps the compressed copies alive between scans.
			cfg.CC.RefreshOnFault = enabled
			m, st, err := workload.MeasureMachine(cfg,
				&workload.FileScan{FileBytes: fileBytes, Passes: 3, CompressTarget: 0.12, Seed: 1})
			if err != nil {
				return fcRun{}, err
			}
			return fcRun{st, m.FS.CompressedCacheHits()}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, enabled := range modes {
		name := "uncompressed only (baseline)"
		if enabled {
			name = "with compressed block cache"
		}
		t.AddRow(name, fmtDur(runs[i].st.Time), fmt.Sprint(runs[i].st.Disk.Reads),
			fmt.Sprint(runs[i].hits))
	}
	return t, nil
}

// lfsComparison quantifies §5.1's discussion of log-structured swap: "Sprite
// LFS could alleviate the problem of seeks between pageouts by grouping
// multiple pages into a single segment. However … LFS requires significant
// memory for buffers, and for LFS to clean segments containing swap files,
// it must copy more live blocks". Three machines run the same over-committed
// read/write thrasher: the unmodified baseline, the baseline paging into a
// log-structured store, and the compression cache.
func lfsComparison(ctx context.Context, o Options) (Result, error) {
	_, pages := o.sizing()
	return lfsSweep(ctx, o, pages)
}

// lfsSweep is lfsComparison over a working set of the given size.
func lfsSweep(ctx context.Context, o Options, pages int32) (Result, error) {
	memoryMB, _ := o.sizing()
	t := &Table{
		Title:  "Extension: paging into a log-structured backing store vs the compression cache (§5.1)",
		Header: []string{"system", "time", "disk writes", "cleaner passes", "speedup vs std"},
	}
	base := machine.Default(int64(memoryMB) << 20)
	cases := []struct {
		name string
		cfg  machine.Config
	}{
		{"unmodified (direct swap)", base},
		{"log-structured swap", base.WithLFS(swap.LFSConfig{SegmentBytes: 64 * 4096})},
		{"compression cache", base.WithCC()},
	}
	var jobs []job
	for _, c := range cases {
		jobs = append(jobs, job{c.cfg, &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: 1}})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	stdTime := runs[0].Time
	for i, c := range cases {
		st := runs[i]
		t.AddRow(c.name, fmtDur(st.Time), fmt.Sprint(st.Disk.Writes), fmt.Sprint(st.Swap.GCs),
			fmt.Sprintf("%.2f", float64(stdTime)/float64(st.Time)))
	}
	return t, nil
}

// multiprogramming measures the three-way memory trade with several
// processes active at once — the situation §4.2's policy is actually
// designed for ("the collective working set of active processes"). Two
// mixes run on both machines: a pair of compressible processes, and a
// compressible process sharing the machine with an incompressible one.
func multiprogramming(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	const seed = 1
	t := &Table{
		Title:  "Extension: multiprogrammed workload mixes (round-robin, shared memory)",
		Header: []string{"mix", "std time", "cc time", "speedup"},
	}
	// Each member's working set is 1x memory, so neither thrashes alone —
	// only their collective working set does. The quantum is much shorter
	// than a sweep, so the interleaving is genuinely concurrent.
	pages := int32(memoryMB * 256)
	const quantum = 64
	mixes := []struct {
		name string
		w    workload.Workload
	}{
		{"two compressible thrashers", &workload.Multi{QuantumRefs: quantum, Workloads: []workload.Workload{
			&workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed},
			&workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed + 1},
		}}},
		{"compressible + incompressible", &workload.Multi{QuantumRefs: quantum, Workloads: []workload.Workload{
			&workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed},
			&workload.Thrasher{Pages: pages, Write: true, Passes: 2,
				CompressTarget: 0.95, Seed: seed + 1},
		}}},
	}
	var jobs []job
	for _, mix := range mixes {
		jobs = append(jobs,
			job{machine.Default(int64(memoryMB) << 20), mix.w},
			job{machine.Default(int64(memoryMB) << 20).WithCC(), mix.w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for mi, mix := range mixes {
		cmp := workload.Comparison{Std: runs[2*mi], CC: runs[2*mi+1]}
		t.AddRow(mix.name, fmtDur(cmp.Std.Time), fmtDur(cmp.CC.Time),
			fmt.Sprintf("%.2f", cmp.Speedup()))
	}
	return t, nil
}

// modelValidation checks the Figure 1(b) analytic model against the full
// simulator at matched parameters: the thrasher at W = 2M with pages
// compressing 4:1, on the default machine. The model's "compression speed
// relative to I/O" is derived from the machine model the same way the paper
// derives it — one page compression versus one page transfer including
// positioning.
func modelValidation(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	t := &Table{
		Title:  "Validation: Figure 1(b) analytic model vs the full simulator (W = 2M, ratio ~0.25)",
		Header: []string{"case", "model speedup", "simulated speedup", "ratio"},
		Note: "The model idealizes faults as pure page moves; agreement within ~2x validates that the\n" +
			"simulator and the analysis describe the same machine.",
	}
	base := machine.Default(int64(memoryMB) << 20)
	pages := int32(memoryMB) * 256 * 2 // W = 2M
	writes := []bool{true, false}
	var jobs []job
	for _, write := range writes {
		w := &workload.Thrasher{Pages: pages, Write: write, Passes: 3, Seed: 1}
		jobs = append(jobs, job{base, w}, job{base.WithCC(), w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	// A machine for its defaulted config, built after the runs so a done
	// context builds none.
	m, err := machine.New(base)
	if err != nil {
		return nil, err
	}
	cfg := m.Config()
	// One-page transfer time including positioning, from the disk model.
	// The read-write baseline seeks on every fault (write out, read in);
	// the read-only baseline reads sequentially and pays only the missed
	// rotation, as §5.1 describes ("no seek necessary if the pages are
	// close to each other in the swap file").
	compress := cfg.Cost.CompressCost(cfg.PageSize)
	pageIORW := cfg.Disk.PerOp + cfg.Disk.SeekAvg + cfg.Disk.RotLatency +
		cfg.Disk.TransferTime(cfg.PageSize)
	pageIORO := cfg.Disk.PerOp + cfg.Disk.RotLatency + cfg.Disk.TransferTime(cfg.PageSize)
	sRW := float64(pageIORW) / float64(compress)
	sRO := float64(pageIORO) / float64(compress)
	params := model.Default()
	for wi, write := range writes {
		cmp := workload.Comparison{Std: runs[2*wi], CC: runs[2*wi+1]}
		ratio := cmp.CC.Comp.Ratio()
		var predicted float64
		name := "read-only"
		if write {
			predicted = params.ReferenceSpeedup(ratio, sRW)
			name = "read-write"
		} else {
			predicted = params.ReadOnlyReferenceSpeedup(ratio, sRO)
		}
		measured := cmp.Speedup()
		t.AddRow(name, fmt.Sprintf("%.2f", predicted), fmt.Sprintf("%.2f", measured),
			fmt.Sprintf("%.2f", measured/predicted))
	}
	return t, nil
}
