// Command ccsim runs one workload on one simulated machine and reports what it
// did — the interactive way to explore the compression cache's behaviour. The
// workload is a named one or a recorded page-reference trace, so one execution
// can be re-examined under different machine configurations: the classic
// trace-driven-simulation workflow.
//
// Usage:
//
//	ccsim [-mem MB] [-cc] [-codec name] [-workload name | -replay trace] [flags...]
//	ccsim -info trace
//
// Examples:
//
//	ccsim -workload thrasher_rw -mem 6 -size 20        # paper Figure 3 point
//	ccsim -workload compare -mem 8 -cc                 # best-case app
//	ccsim -workload sort_random -mem 8 -cc             # worst-case app
//	ccsim -record t.cct -workload thrasher_rw -size 8 -mem 2
//	ccsim -replay t.cct -mem 2 -cc -events run.jsonl -summary
//	ccsim -replay t.cct -mem 2 -cc -timeline -classes fault,flush
//	ccsim -info t.cct
//
// Every run prints a header line, the statistics block and where the virtual
// time went, by cause, then the views asked for: -events exports the retained
// event window as JSONL ("-" for stdout), -timeline prints it as an aligned
// virtual-time table, and -summary prints per-class event counts and the
// metrics-registry snapshot (counters, gauges, virtual-latency histograms).
// -classes narrows which event classes are traced; -ring bounds how many
// events are retained. -record writes the run's page-reference trace, in any
// configuration. With -crash-at-write the reboot's recovery report takes the
// statistics block's place and the views describe the rebooted machine.
// Everything printed is in virtual time and deterministic for a fixed seed.
// -cpuprofile writes a host CPU profile of the run (for go tool pprof), its
// samples labelled by workload and leg: the run, and the reboot after a cut.
package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"compcache/internal/compress"
	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/stats"
	"compcache/internal/swap"
	"compcache/internal/trace"
	"compcache/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command and returns the exit status: 0 on success, 1 when
// the workload is unknown, a trace cannot be read or written, the run or the
// reboot fails or the recovery does not verify, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	fs.IntVar(&f.memMB, "mem", 6, "user memory in MB")
	fs.BoolVar(&f.cc, "cc", false, "enable the compression cache")
	fs.StringVar(&f.codec, "codec", "lzrw1", "compression codec ("+strings.Join(compress.Names(), ", ")+")")
	fs.StringVar(&f.workload, "workload", "thrasher_rw",
		"workload to run ("+strings.Join(slices.Sorted(maps.Keys(workloads)), ", ")+")")
	fs.IntVar(&f.sizeMB, "size", 12, "working-set size in MB (thrasher, filescan, sort, compare scale)")
	fs.IntVar(&f.passes, "passes", 2, "thrasher and filescan passes")
	fs.Int64Var(&f.seed, "seed", 1, "workload random seed")
	fs.BoolVar(&f.partialIO, "partialio", false, "allow sub-block backing-store transfers (ablation)")
	fs.BoolVar(&f.span, "span", false, "let compressed pages span file blocks (ablation)")
	fs.Uint64Var(&f.crashAt, "crash-at-write", 0, "cut power at the Nth device write, reboot from the torn media and report recovery (arms the durable store formats)")
	fs.StringVar(&f.record, "record", "", "write the run's page-reference trace to this file")
	fs.StringVar(&f.replay, "replay", "", "run the trace in this file as the workload, in place of -workload")
	fs.StringVar(&f.info, "info", "", "print a summary of the trace in this file and run nothing")
	fs.StringVar(&f.views.events, "events", "", "export the run's event stream as JSONL to this file ('-' = stdout)")
	fs.BoolVar(&f.views.timeline, "timeline", false, "print the run's event timeline (virtual time)")
	fs.BoolVar(&f.views.summary, "summary", false, "print per-class event counts and the metrics snapshot")
	fs.StringVar(&f.views.classes, "classes", "all", "event classes to trace, comma-separated (see obs docs); 'all' or 'none'")
	fs.IntVar(&f.views.ring, "ring", 0, "event ring capacity (0 = default; oldest events drop beyond it)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a host CPU profile of the run to this file, its samples labelled by workload and leg (run, reboot)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Everything goes out through one buffer, flushed whatever the outcome.
	out := bufio.NewWriter(stdout)
	var err error
	if f.info != "" {
		err = writeInfo(out, f.info)
	} else {
		err = f.profiled(out)
	}
	if err = errors.Join(err, out.Flush()); err != nil {
		fmt.Fprintln(stderr, "ccsim:", err)
		return 1
	}
	return 0
}

// flags is the parsed command line.
type flags struct {
	memMB, sizeMB, passes int
	cc, partialIO, span   bool
	codec, workload       string
	seed                  int64
	crashAt               uint64
	record, replay, info  string
	cpuProfile            string
	views                 obsOptions
}

// workloads is the -workload table: each name builds its workload from the
// size, pass and seed flags.
var workloads = map[string]func(f *flags) workload.Workload{
	"thrasher_ro": func(f *flags) workload.Workload {
		return &workload.Thrasher{Pages: int32(f.sizeMB << 20 / 4096), Write: false, Passes: f.passes, Seed: f.seed}
	},
	"thrasher_rw": func(f *flags) workload.Workload {
		return &workload.Thrasher{Pages: int32(f.sizeMB << 20 / 4096), Write: true, Passes: f.passes, Seed: f.seed}
	},
	"filescan": func(f *flags) workload.Workload {
		return &workload.FileScan{FileBytes: int64(f.sizeMB) << 20, Passes: f.passes, Seed: f.seed}
	},
	"compare": func(f *flags) workload.Workload {
		// Size the band matrix to about sizeMB.
		const band = 1024
		return &workload.Compare{N: f.sizeMB << 20 / band, Band: band, Seed: f.seed}
	},
	"isca": func(f *flags) workload.Workload {
		return &workload.CacheSim{CPUs: 8, Sets: 2048, Ways: 2,
			AddrWords: uint64(f.sizeMB) << 20 / 8, BlockWordsList: []int{4, 16, 64},
			Refs: 1 << 20, Seed: f.seed}
	},
	"sort_random": func(f *flags) workload.Workload {
		return &workload.Sort{Bytes: int64(f.sizeMB) << 20, Mode: workload.SortRandom, Seed: f.seed}
	},
	"sort_partial": func(f *flags) workload.Workload {
		return &workload.Sort{Bytes: int64(f.sizeMB) << 20, Mode: workload.SortPartial, Seed: f.seed}
	},
	"gold_create": gold(workload.GoldCreate),
	"gold_cold":   gold(workload.GoldCold),
	"gold_warm":   gold(workload.GoldWarm),
}

// gold builds one phase of the mail-index workload, its index about sizeMB.
func gold(phase workload.GoldPhase) func(f *flags) workload.Workload {
	return func(f *flags) workload.Workload {
		msgs := f.sizeMB << 20 / (32 * 8 * 2)
		return &workload.Gold{Messages: msgs, WordsPerMessage: 32, VocabWords: 16000,
			Queries: msgs / 3, Phase: phase, Seed: f.seed}
	}
}

// config is the machine the flags describe.
func (f *flags) config() machine.Config {
	cfg := machine.Default(int64(f.memMB) << 20)
	if f.cc {
		cfg = cfg.WithCC()
		cfg.CC.Codec = f.codec
	}
	cfg.FS.AllowPartialIO = f.partialIO
	cfg.Swap.SpanBlocks = f.span
	if f.crashAt > 0 {
		if !f.cc {
			// The baseline's direct swap has no recoverable layout; crash
			// testing the baseline means paging into the durable LFS.
			cfg = cfg.WithLFS(swap.LFSConfig{Durable: true})
		}
		// Explicit rather than relying on the injector's auto-arming, so the
		// fault-free reboot configuration reads the same media format.
		cfg.Swap.CommitRecords = true
		cfg = cfg.WithFaults(fault.Config{Seed: f.seed, CrashAtWrite: f.crashAt})
	}
	return cfg
}

// profiled is simulate under the host CPU profile -cpuprofile asks for.
func (f *flags) profiled(out io.Writer) error {
	if f.cpuProfile == "" {
		return f.simulate(out)
	}
	file, err := os.Create(f.cpuProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		return errors.Join(err, file.Close())
	}
	err = f.simulate(out)
	pprof.StopCPUProfile()
	return errors.Join(err, file.Close())
}

// leg runs fn with its host CPU samples labelled by the workload and the
// leg of the run (the run itself, or the reboot after a power cut).
func leg(w workload.Workload, name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("workload", w.Name(), "leg", name), func(context.Context) { fn() })
}

// simulate makes the run the flags describe and prints its report.
func (f *flags) simulate(out io.Writer) error {
	var w workload.Workload
	if f.replay != "" {
		refs, err := readTrace(f.replay)
		if err != nil {
			return err
		}
		w = &workload.Replay{Refs: refs, Seed: f.seed}
	} else if build, ok := workloads[f.workload]; ok {
		w = build(f)
	} else {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	opts, err := f.views.options()
	if err != nil {
		return err
	}
	var rec *recording
	if f.record != "" {
		rec = &recording{Workload: w}
		w = rec
	}

	cfg := f.config()
	var m *machine.Machine
	var st stats.Run
	leg(w, "run", func() { m, st, err = workload.MeasureMachine(cfg, w, opts...) })
	if f.crashAt > 0 {
		// The armed power cut fires mid-run; any other failure is the run's.
		if err != nil && !fault.IsCrash(err) {
			return err
		}
		if m == nil || !m.Introspect().Injector.Crashed() {
			return fmt.Errorf("the run finished before device write %d; crash earlier", f.crashAt)
		}
	} else if err != nil {
		return err
	}
	var recorded int64
	if rec != nil {
		if recorded, err = rec.save(f.record); err != nil {
			return err
		}
	}

	mode := "baseline (no compression cache)"
	if f.cc {
		mode = fmt.Sprintf("compression cache on (%s)", f.codec)
	}
	fmt.Fprintf(out, "workload %s on %d MB, %s\n", w.Name(), f.memMB, mode)
	shown := m
	if f.crashAt == 0 {
		fmt.Fprintf(out, "\n%v\n%v", st, m.TimeBreakdown())
	} else {
		// Reboot a machine from the torn media image and verify the recovery.
		fmt.Fprintf(out, "power cut at device write %d, %v into the run\n\n", f.crashAt, m.Elapsed())
		reboot := cfg
		reboot.Faults = nil
		var verr error
		leg(w, "reboot", func() {
			if shown, err = machine.NewFromMedia(reboot, m.FS.Image(), opts...); err == nil {
				verr = shown.VerifyRecovery(m)
			}
		})
		if err != nil {
			return fmt.Errorf("reboot failed: %w", err)
		}
		fmt.Fprintln(out, "reboot:", shown.Introspect().Recovery)
		if verr != nil {
			return fmt.Errorf("recovery verification FAILED: %w", verr)
		}
		fmt.Fprintln(out, "recovery verified: no acknowledged-durable page lost, no torn fragment served")
	}
	if rec != nil {
		fmt.Fprintf(out, "recorded %d references (%d bytes) from %s to %s\n",
			len(rec.trace.Refs), recorded, w.Name(), f.record)
	}
	return f.views.report(out, shown)
}

// recording is a workload run with the machine's page references noted: the
// trace -record writes. It runs through workload.MeasureMachine like any
// other, so a recorded run gets the same error and invariant checks.
type recording struct {
	workload.Workload
	trace trace.Recorder
}

func (r *recording) Run(m *machine.Machine) error {
	m.VM.SetTraceHook(r.trace.Note)
	return r.Workload.Run(m)
}

// save writes the recorded trace to path and returns its size in bytes.
func (r *recording) save(path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := r.trace.WriteTo(f)
	return n, errors.Join(err, f.Close())
}

// readTrace loads the trace file at path.
func readTrace(path string) ([]trace.PageRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	refs, err := trace.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return refs, nil
}

// writeInfo prints the -info summary of the trace at path.
func writeInfo(out io.Writer, path string) error {
	refs, err := readTrace(path)
	if err != nil {
		return err
	}
	segs, err := trace.Segments(refs)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	writes := 0
	for _, r := range refs {
		if r.Write {
			writes++
		}
	}
	fmt.Fprintf(out, "%s: %d references, %d segment(s), %.1f%% writes\n",
		path, len(refs), len(segs), 100*float64(writes)/float64(max(len(refs), 1)))
	slices.SortFunc(segs, func(a, b trace.Segment) int { return cmp.Compare(a.ID, b.ID) })
	for _, seg := range segs {
		fmt.Fprintf(out, "  segment %d: %d pages (%.1f MB)\n", seg.ID, seg.Pages, float64(seg.Pages)*4096/(1<<20))
	}
	return nil
}

// obsOptions carries the flags that choose the views of the machine's
// event stream.
type obsOptions struct {
	events   string // JSONL export path, "-" = stdout, "" = off
	timeline bool
	summary  bool
	classes  string
	ring     int
}

// enabled reports whether the run needs a bus at all.
func (o obsOptions) enabled() bool {
	return o.events != "" || o.timeline || o.summary
}

// options returns the machine options that attach the bus when any view is
// requested.
func (o obsOptions) options() ([]machine.Option, error) {
	if !o.enabled() {
		return nil, nil
	}
	mask, err := obs.ParseClasses(o.classes)
	if err != nil {
		return nil, err
	}
	return []machine.Option{machine.WithObs(obs.Options{Classes: mask, RingSize: o.ring})}, nil
}

// report prints the requested views of the machine's run.
func (o obsOptions) report(out io.Writer, m *machine.Machine) error {
	if !o.enabled() {
		return nil
	}
	events := m.Events()
	if err := obs.ExportEventsJSONL(o.events, out, events); err != nil {
		return err
	}
	if o.events != "" && o.events != "-" {
		fmt.Fprintf(out, "wrote %d event(s) to %s\n", len(events), o.events)
	}
	if dropped := m.Introspect().Bus.Dropped(); dropped > 0 {
		fmt.Fprintf(out, "note: ring retained the last %d event(s); %d older one(s) dropped (raise -ring to keep more)\n",
			len(events), dropped)
	}
	if o.timeline {
		if err := obs.WriteTimeline(out, events); err != nil {
			return err
		}
	}
	if o.summary {
		fmt.Fprintf(out, "events by class (%d retained):\n", len(events))
		if err := obs.WriteClassSummary(out, events); err != nil {
			return err
		}
		if snap := m.Metrics(); snap != nil {
			fmt.Fprintln(out, "metrics:")
			fmt.Fprint(out, snap)
		}
	}
	return nil
}
