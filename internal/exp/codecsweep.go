package exp

import (
	"context"
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/workload"
)

// codecSweep compares the codec suite end to end: the paper's software LZ
// codecs against the hardware-class BDI and FPC transforms. Each codec runs
// the same thrashing workload with a virtual compression bandwidth modeling
// its class (§6 discusses exactly this trade: a hardware engine compresses
// far faster but usually less tightly than software LZ), so the table shows
// how ratio and per-page cost pull the total run time in opposite
// directions. The virtual per-page costs come from the machine's
// machine.compress_page / machine.decompress_page histograms. Host codec
// speed is not a column: it is the perf ledger's compress.<codec>.*_mbps.
func codecSweep(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	t := &Table{
		Title:  "Extension: codec sweep — software LZ vs hardware-class BDI/FPC",
		Header: []string{"codec", "time", "ratio", "uncomp%", "comp us/pg", "dec us/pg"},
		Note: "Virtual bandwidths model each codec's class (software LZ ~1 MB/s on the paper's " +
			"DECstation, BDI/FPC at hardware speeds). FPC's word patterns target integer-heavy " +
			"pages, so the text-patterned thrasher pages defeat it (100% stored) — exactly the " +
			"coverage gap that separates pattern codecs from LZ.",
	}
	variants := []struct {
		codec            string
		compBW, decompBW float64 // virtual bytes/second
	}{
		{"lzrw1", 1e6, 2e6},  // the paper's software speed point
		{"lzss", 0.4e6, 2e6}, // asymmetric: slow compress, LZRW1-fast decompress
		{"fpc", 20e6, 20e6},  // hardware-class pattern matcher
		{"bdi", 40e6, 40e6},  // hardware-class arithmetic transform
	}
	w := &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: 1}
	var jobs []job
	for _, v := range variants {
		cfg := machine.Default(int64(memoryMB) << 20).WithCC()
		cfg.CC.Codec = v.codec
		cfg.Cost.CompressBW = v.compBW
		cfg.Cost.DecompressBW = v.decompBW
		jobs = append(jobs, job{cfg, w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs, machine.WithObs(obs.Options{}))
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		st := runs[i]
		comp, _ := st.Metrics.Hist("machine.compress_page")
		dec, _ := st.Metrics.Hist("machine.decompress_page")
		t.AddRow(v.codec, fmtDur(st.Time),
			fmt.Sprintf("%.2f", st.Comp.Ratio()),
			fmt.Sprintf("%.1f", 100*st.Comp.UncompressibleFrac()),
			fmt.Sprintf("%.1f", float64(comp.Mean())/1e3),
			fmt.Sprintf("%.1f", float64(dec.Mean())/1e3))
	}
	return t, nil
}
