package exp

import (
	"context"
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/policy"
	"compcache/internal/workload"
)

// Ablations quantify the design decisions §4 argues for. Each returns a
// Table comparing a design variant against the paper's configuration. Every
// ablation builds its full grid of independent (configuration, workload)
// runs up front and fans them out across up to Options.Parallelism machines
// (0 = one per core, 1 = serial); rows always assemble in grid order, so
// the tables are byte-identical at any parallelism.

// ablationPartialIO measures §4.3's central constraint: whole-file-block
// transfers versus an ideal backing store that can move exactly the bytes a
// compressed page occupies ("Ideally, one would use the compression cache in
// a system that permitted less than a 4-Kbyte read to satisfy a page fault",
// §5.2; "A better interface to the backing store would help as well", §6).
func ablationPartialIO(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	const seed = 1
	t := &Table{
		Title:  "Ablation: whole-block backing-store transfers vs exact-size (partial) I/O",
		Header: []string{"workload", "backing store", "time", "disk reads", "bytes read", "speedup vs whole-block"},
		Note: "The paper predicts exact-size transfers help applications with nonsequential faults (gold);\n" +
			"for sequential sweeps (thrasher) whole-block reads win because they carry neighbor pages.",
	}
	msgs := memoryMB << 20 / (24 * 8 * 3) // index ~1.5x memory
	loads := []workload.Workload{
		&workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed},
		&workload.Gold{Messages: msgs, WordsPerMessage: 24, VocabWords: 3000,
			Queries: msgs / 2, Phase: workload.GoldCold, Seed: seed},
	}
	modes := []bool{false, true}
	var jobs []job
	for _, w := range loads {
		for _, partial := range modes {
			cfg := machine.Default(int64(memoryMB) << 20).WithCC()
			cfg.FS.AllowPartialIO = partial
			jobs = append(jobs, job{cfg, w})
		}
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range loads {
		base := runs[2*wi].Time // whole-block row comes first
		for mi, partial := range modes {
			st := runs[2*wi+mi]
			name := "whole 4-KByte blocks (paper)"
			if partial {
				name = "exact-size transfers (ideal)"
			}
			t.AddRow(w.Name(), name, fmtDur(st.Time), fmt.Sprint(st.Disk.Reads),
				fmt.Sprintf("%.1fMB", float64(st.Disk.BytesRead)/(1<<20)),
				fmt.Sprintf("%.2f", float64(base)/float64(st.Time)))
		}
	}
	return t, nil
}

// ablationSpanning measures §4.3's page-spanning parameter: pages that may
// cross file-block boundaries waste no fragments but can require two-block
// reads; pages that may not "increase fragmentation and the effective
// bandwidth for writes to the backing store correspondingly decreases".
func ablationSpanning(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	t := &Table{
		Title:  "Ablation: compressed pages spanning file-block boundaries",
		Header: []string{"spanning", "time", "bytes written", "bytes read", "swap frags live/free"},
	}
	modes := []bool{false, true}
	var jobs []job
	for _, span := range modes {
		cfg := machine.Default(int64(memoryMB) << 20).WithCC()
		cfg.Swap.SpanBlocks = span
		// Pages compressing to ~3 fragments so packing decisions matter.
		jobs = append(jobs, job{cfg, &workload.Thrasher{Pages: pages, Write: true, Passes: 2,
			CompressTarget: 0.55, Seed: 1}})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for i, span := range modes {
		st := runs[i]
		t.AddRow(fmt.Sprint(span), fmtDur(st.Time),
			fmt.Sprintf("%.1fMB", float64(st.Disk.BytesWritten)/(1<<20)),
			fmt.Sprintf("%.1fMB", float64(st.Disk.BytesRead)/(1<<20)),
			fmt.Sprintf("%d/%d", st.Swap.FragsLive, st.Swap.FragsFree))
	}
	return t, nil
}

// ablationBias sweeps the compression cache's retention bias (§4.2: "the
// optimal penalty for the compression cache is application-dependent").
// A favourable bias (small scale) lets the cache grow during paging; an
// unfavourable one degenerates it into "a buffer for compressing and
// decompressing pages between memory and the backing store".
func ablationBias(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	const seed = 1
	t := &Table{
		Title:  "Ablation: compression-cache age bias (retention preference)",
		Header: []string{"cc age scale", "thrasher time", "thrasher hits", "gold_warm time", "gold_warm hits"},
		Note: "Smaller scale = compressed pages look younger = retained longer; the optimal\n" +
			"penalty for the compression cache is application-dependent (§4.2).",
	}
	// Size the index at about 1.5x memory so the warm queries page.
	msgs := memoryMB << 20 / 128
	scales := []float64{0.1, 0.25, 0.5, 1.0, 2.0, 4.0}
	var jobs []job
	for _, scale := range scales {
		cfg := machine.Default(int64(memoryMB) << 20).WithCC()
		cfg.Biases.CC = policy.DefaultBiases().CC
		cfg.Biases.CC.Scale = scale
		jobs = append(jobs,
			job{cfg, &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed}},
			job{cfg, &workload.Gold{Messages: msgs, WordsPerMessage: 24,
				VocabWords: 3000, Queries: msgs / 3, Phase: workload.GoldWarm, Seed: seed}})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for si, scale := range scales {
		thr, gld := runs[2*si], runs[2*si+1]
		t.AddRow(fmt.Sprintf("%.2f", scale),
			fmtDur(thr.Time), fmt.Sprintf("%.2f", thr.CC.HitRate()),
			fmtDur(gld.Time), fmt.Sprintf("%.2f", gld.CC.HitRate()))
	}
	return t, nil
}

// ablationThreshold sweeps the 4:3 retention threshold on the paper's worst
// compressor, sort_random (§5.2: ~98% of pages miss the threshold, so the
// threshold's job is damage control).
func ablationThreshold(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	t := &Table{
		Title:  "Ablation: compression retention threshold (paper: keep only better than 4:3)",
		Header: []string{"keep if comp <=", "sort_random time", "uncomp%", "cc inserts"},
	}
	thresholds := []struct {
		num, den int
		label    string
	}{
		{1, 2, "1/2 page (2:1)"},
		{3, 4, "3/4 page (4:3, paper)"},
		{9, 10, "9/10 page"},
		{1, 1, "always keep"},
	}
	var jobs []job
	for _, th := range thresholds {
		cfg := machine.Default(int64(memoryMB) << 20).WithCC()
		cfg.CC.KeepNum, cfg.CC.KeepDen = th.num, th.den
		jobs = append(jobs, job{cfg, &workload.Sort{
			Bytes: int64(memoryMB) << 20 * 3 / 2, Mode: workload.SortRandom, VocabWords: 4000, Seed: 1}})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for i, th := range thresholds {
		st := runs[i]
		t.AddRow(th.label, fmtDur(st.Time),
			fmt.Sprintf("%.1f", 100*st.Comp.UncompressibleFrac()),
			fmt.Sprint(st.CC.Inserts))
	}
	return t, nil
}

// ablationCodec compares compression algorithms (§3: the design "should
// allow different compression algorithms to be used for different types of
// data").
func ablationCodec(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	t := &Table{
		Title:  "Ablation: codec choice",
		Header: []string{"codec", "time", "ratio", "uncomp%", "cc hit rate"},
		Note: "rle is not run: the thrasher's pages hold no runs, so rle stores every page raw " +
			"and its row would repeat null's.",
	}
	codecs := []string{"lzrw1", "lzss", "null"}
	var jobs []job
	for _, codec := range codecs {
		cfg := machine.Default(int64(memoryMB) << 20).WithCC()
		cfg.CC.Codec = codec
		jobs = append(jobs, job{cfg, &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: 1}})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for i, codec := range codecs {
		st := runs[i]
		t.AddRow(codec, fmtDur(st.Time),
			fmt.Sprintf("%.2f", st.Comp.Ratio()),
			fmt.Sprintf("%.1f", 100*st.Comp.UncompressibleFrac()),
			fmt.Sprintf("%.2f", st.CC.HitRate()))
	}
	return t, nil
}

// ablationFixedSize reproduces §4.2's motivating argument against the
// original fixed-size compression cache: "on a machine with 8 Mbytes of
// memory available to user processes, setting aside 4 Mbytes for compressed
// pages would cause a 6-Mbyte process to page, ruining its performance. On
// the other hand, even after compression a 12-Mbyte process probably would
// not fit into the 4 Mbytes available." The fixed rows pre-grow the cache to
// a set size that never changes (the original design, kept in the core for
// this study); the adaptive row is the paper's final design.
func ablationFixedSize(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	t := &Table{
		Title:  "Ablation: fixed-size compression cache vs adaptive sizing (§4.2)",
		Header: []string{"cache sizing", "small ws time", "large ws time"},
		Note:   "small ws ~= 3/4 of memory (should not page at all); large ws ~= 3x memory.",
	}
	memBytes := int64(memoryMB) << 20
	frames := int(memBytes / 4096)
	smallWS := int32(frames * 3 / 4)
	largeWS := int32(frames * 3)
	variants := []struct {
		label     string
		maxFrames int
	}{
		{"fixed 1/2 of memory", frames / 2},
		{"fixed 1/8 of memory", frames / 8},
		{"adaptive (paper)", 0},
	}
	var jobs []job
	for _, v := range variants {
		for _, ws := range []int32{smallWS, largeWS} {
			cfg := machine.Default(memBytes).WithCC()
			cfg.CC.FixedFrames = v.maxFrames
			jobs = append(jobs, job{cfg, &workload.Thrasher{Pages: ws, Write: true, Passes: 2, Seed: 1}})
		}
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		small, large := runs[2*vi].Time, runs[2*vi+1].Time
		t.AddRow(v.label, fmtDur(small), fmtDur(large))
	}
	return t, nil
}
