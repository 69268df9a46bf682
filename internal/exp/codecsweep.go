package exp

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/workload"
)

// CodecSweep compares the codec suite end to end: the paper's software LZ
// codecs against the hardware-class BDI and FPC transforms. Each codec runs
// the same thrashing workload with a virtual compression bandwidth modeling
// its class (§6 discusses exactly this trade: a hardware engine compresses
// far faster but usually less tightly than software LZ), so the table shows
// how ratio and per-page cost pull the total run time in opposite
// directions. The virtual per-page costs come from the machine's
// machine.compress_page / machine.decompress_page histograms.
//
// The host ns/op column is a host-clock microbenchmark of the codec itself
// and therefore nondeterministic; it is measured only when hostTiming is set
// (ccbench -host-timing) and prints "-" otherwise, keeping the default table
// byte-identical at any parallelism.
func CodecSweep(memoryMB int, pages int32, seed int64, workers int, hostTiming bool) (*Table, error) {
	t := &Table{
		Title: "Extension: codec sweep — software LZ vs hardware-class BDI/FPC",
		Header: []string{"codec", "time", "ratio", "uncomp%",
			"comp us/pg", "dec us/pg", "host ns/op"},
		Note: "Virtual bandwidths model each codec's class (software LZ ~1 MB/s on the paper's " +
			"DECstation, BDI/FPC at hardware speeds). FPC's word patterns target integer-heavy " +
			"pages, so the text-patterned thrasher pages defeat it (100% stored) — exactly the " +
			"coverage gap that separates pattern codecs from LZ. host ns/op requires -host-timing.",
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
	w := &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed}
	var jobs []job
	for _, v := range variants {
		cfg := machine.Default(int64(memoryMB) << 20).WithCC()
		cfg.CC.Codec = v.codec
		cfg.Cost.CompressBW = v.compBW
		cfg.Cost.DecompressBW = v.decompBW
		jobs = append(jobs, job{cfg, w})
	}
	runs, err := measureAll(workers, jobs, machine.WithObs(obs.Options{}))
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		st := runs[i]
		comp, _ := st.Metrics.Hist("machine.compress_page")
		dec, _ := st.Metrics.Hist("machine.decompress_page")
		host := "-"
		if hostTiming {
			c, err := compress.Lookup(v.codec)
			if err != nil {
				return nil, err
			}
			host = fmt.Sprintf("%d", hostNsPerPage(c, seed))
		}
		t.AddRow(v.codec, fmtDur(st.Time),
			fmt.Sprintf("%.2f", st.Comp.Ratio()),
			fmt.Sprintf("%.1f", 100*st.Comp.UncompressibleFrac()),
			fmt.Sprintf("%.1f", float64(comp.Mean())/1e3),
			fmt.Sprintf("%.1f", float64(dec.Mean())/1e3),
			host)
	}
	return t, nil
}

// hostNsPerPage measures the host-side cost of one Compress call on a mixed
// page corpus (zero, text-like, incompressible). It is only called behind
// the HostTiming gate because wall-clock results vary run to run.
func hostNsPerPage(c compress.Codec, seed int64) int64 {
	const pageSize = 4096
	rng := rand.New(rand.NewSource(seed))
	corpus := make([][]byte, 0, 24)
	text := bytes.Repeat([]byte("inverted index posting list "), pageSize/28+1)[:pageSize]
	for i := 0; i < 8; i++ {
		corpus = append(corpus, make([]byte, pageSize)) // zero page
		corpus = append(corpus, text)
		p := make([]byte, pageSize)
		rng.Read(p)
		corpus = append(corpus, p)
	}
	dst := make([]byte, 0, c.MaxCompressedSize(pageSize))
	for _, p := range corpus { // warm up pools and caches
		dst = c.Compress(dst[:0], p)
	}
	const rounds = 50
	start := time.Now() //cclint:ignore walltime -- host-side microbenchmark behind the -host-timing gate
	for r := 0; r < rounds; r++ {
		for _, p := range corpus {
			dst = c.Compress(dst[:0], p)
		}
	}
	elapsed := time.Since(start) //cclint:ignore walltime -- host-side microbenchmark behind the -host-timing gate
	return elapsed.Nanoseconds() / int64(rounds*len(corpus))
}
