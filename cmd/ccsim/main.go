// Command ccsim runs one workload on a configurable simulated machine and
// prints the statistics block and where the virtual time went, by cause — the
// interactive way to explore the compression cache's behaviour.
//
// Usage:
//
//	ccsim [-mem MB] [-cc] [-codec name] [-workload name] [flags...]
//
// Workloads: thrasher_ro, thrasher_rw, compare, isca, sort_random,
// sort_partial, gold_create, gold_cold, gold_warm.
//
// Examples:
//
//	ccsim -workload thrasher_rw -mem 6 -size 20        # paper Figure 3 point
//	ccsim -workload compare -mem 8 -cc                 # best-case app
//	ccsim -workload sort_random -mem 8 -cc             # worst-case app
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command and returns the exit status: 0 on success, 1 when
// the workload is unknown, the run or the reboot fails or the recovery does
// not verify, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	memMB := fs.Int("mem", 6, "user memory in MB")
	useCC := fs.Bool("cc", false, "enable the compression cache")
	codec := fs.String("codec", "lzrw1", "compression codec (lzrw1, lzss, rle, null)")
	name := fs.String("workload", "thrasher_rw", "workload to run")
	sizeMB := fs.Int("size", 12, "working-set size in MB (thrasher, sort, compare scale)")
	passes := fs.Int("passes", 2, "thrasher passes")
	seed := fs.Int64("seed", 1, "workload random seed")
	partialIO := fs.Bool("partialio", false, "allow sub-block backing-store transfers (ablation)")
	span := fs.Bool("span", false, "let compressed pages span file blocks (ablation)")
	crashAt := fs.Uint64("crash-at-write", 0, "cut power at the Nth device write, reboot from the torn media and report recovery (arms the durable store formats)")
	eventsOut := fs.String("events", "", "export the run's observability events as JSONL to this file ('-' = stdout); with -crash-at-write, exports the reboot's recovery events")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ccsim:", err)
		return 1
	}

	cfg := machine.Default(int64(*memMB) << 20)
	if *useCC {
		cfg = cfg.WithCC()
		cfg.CC.Codec = *codec
	}
	cfg.FS.AllowPartialIO = *partialIO
	cfg.Swap.SpanBlocks = *span
	if *crashAt > 0 {
		if !*useCC {
			// The baseline's direct swap has no recoverable layout; crash
			// testing the baseline means paging into the durable LFS.
			cfg = cfg.WithLFS(swap.LFSConfig{Durable: true})
		}
		// Explicit rather than relying on the injector's auto-arming, so the
		// fault-free reboot configuration reads the same media format.
		cfg.Swap.CommitRecords = true
		cfg = cfg.WithFaults(fault.Config{Seed: *seed, CrashAtWrite: *crashAt})
	}

	pages := int32(*sizeMB << 20 / 4096)
	var w workload.Workload
	switch *name {
	case "thrasher_ro":
		w = &workload.Thrasher{Pages: pages, Write: false, Passes: *passes, Seed: *seed}
	case "thrasher_rw":
		w = &workload.Thrasher{Pages: pages, Write: true, Passes: *passes, Seed: *seed}
	case "compare":
		// Size the band matrix to about sizeMB.
		band := 1024
		n := *sizeMB << 20 / band
		w = &workload.Compare{N: n, Band: band, Seed: *seed}
	case "isca":
		w = &workload.CacheSim{CPUs: 8, Sets: 2048, Ways: 2,
			AddrWords: uint64(*sizeMB) << 20 / 8, BlockWordsList: []int{4, 16, 64},
			Refs: 1 << 20, Seed: *seed}
	case "sort_random":
		w = &workload.Sort{Bytes: int64(*sizeMB) << 20, Mode: workload.SortRandom, Seed: *seed}
	case "sort_partial":
		w = &workload.Sort{Bytes: int64(*sizeMB) << 20, Mode: workload.SortPartial, Seed: *seed}
	case "gold_create", "gold_cold", "gold_warm":
		phase := workload.GoldCreate
		switch *name {
		case "gold_cold":
			phase = workload.GoldCold
		case "gold_warm":
			phase = workload.GoldWarm
		}
		msgs := *sizeMB << 20 / (32 * 8 * 2) // index ~= sizeMB
		w = &workload.Gold{Messages: msgs, WordsPerMessage: 32, VocabWords: 16000,
			Queries: msgs / 3, Phase: phase, Seed: *seed}
	default:
		return fail(fmt.Errorf("unknown workload %q", *name))
	}

	var opts []machine.Option
	if *eventsOut != "" {
		opts = append(opts, machine.WithObs(obs.Options{}))
	}
	mode := "baseline (no compression cache)"
	if *useCC {
		mode = fmt.Sprintf("compression cache on (%s)", *codec)
	}

	m, st, err := workload.MeasureMachine(cfg, w, opts...)
	if *crashAt == 0 {
		if err != nil {
			return fail(err)
		}
		if err := obs.ExportEventsJSONL(*eventsOut, stdout, m.Events()); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "workload %s on %d MB, %s\n\n", w.Name(), *memMB, mode)
		fmt.Fprint(stdout, st)
		fmt.Fprintf(stdout, "\n%v", m.TimeBreakdown())
		return 0
	}

	// The armed power cut fires mid-run: reboot a machine from the torn media
	// image, verify the recovery, and print the recovery report.
	if err != nil && !fault.IsCrash(err) {
		return fail(err)
	}
	if m == nil || !m.Introspect().Injector.Crashed() {
		return fail(fmt.Errorf("the run finished before device write %d; crash earlier", *crashAt))
	}
	fmt.Fprintf(stdout, "workload %s on %d MB, %s\n", w.Name(), *memMB, mode)
	fmt.Fprintf(stdout, "power cut at device write %d, %v into the run\n\n", *crashAt, m.Elapsed())

	reboot := cfg
	reboot.Faults = nil
	reborn, err := machine.NewFromMedia(reboot, m.FS.Image(), opts...)
	if err != nil {
		return fail(fmt.Errorf("reboot failed: %w", err))
	}
	if err := obs.ExportEventsJSONL(*eventsOut, stdout, reborn.Events()); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "reboot:", reborn.Introspect().Recovery)
	if err := reborn.VerifyRecovery(m); err != nil {
		return fail(fmt.Errorf("recovery verification FAILED: %w", err))
	}
	fmt.Fprintln(stdout, "recovery verified: no acknowledged-durable page lost, no torn fragment served")
	return 0
}
