// Command cctrace records and replays page-reference traces, so one
// workload execution can be re-examined under different machine
// configurations — the classic trace-driven-simulation workflow — and
// inspects the machine's observability stream while doing it.
//
// Usage:
//
//	cctrace -record trace.cct -workload thrasher_rw -size 8 -mem 2
//	cctrace -replay trace.cct -mem 2 -cc
//	cctrace -replay trace.cct -mem 2 -cc -events run.jsonl -summary
//	cctrace -replay trace.cct -mem 2 -cc -timeline -classes fault,flush
//	cctrace -info trace.cct
//
// The -events, -timeline and -summary views attach the machine's event bus
// for the run: -events exports the retained event window as JSONL ("-" for
// stdout), -timeline prints it as an aligned virtual-time table, and
// -summary prints per-class event counts, the metrics-registry snapshot
// (counters, gauges, virtual-latency histograms) and where the run's virtual
// time went, by cause. -classes narrows which event classes are traced; -ring
// bounds how many events are retained. Everything printed is in virtual time
// and deterministic for a fixed seed.
package main

import (
	"bufio"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/trace"
	"compcache/internal/workload"
)

// obsOptions carries the observability flags shared by -record and -replay.
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
func (o obsOptions) report(stdout io.Writer, m *machine.Machine) error {
	if !o.enabled() {
		return nil
	}
	events := m.Events()
	if err := obs.ExportEventsJSONL(o.events, stdout, events); err != nil {
		return err
	}
	if o.events != "" && o.events != "-" {
		fmt.Fprintf(stdout, "wrote %d event(s) to %s\n", len(events), o.events)
	}
	if dropped := m.Introspect().Bus.Dropped(); dropped > 0 {
		fmt.Fprintf(stdout, "note: ring retained the last %d event(s); %d older one(s) dropped (raise -ring to keep more)\n",
			len(events), dropped)
	}
	if o.timeline {
		if err := obs.WriteTimeline(stdout, events); err != nil {
			return err
		}
	}
	if o.summary {
		fmt.Fprintf(stdout, "events by class (%d retained):\n", len(events))
		if err := obs.WriteClassSummary(stdout, events); err != nil {
			return err
		}
		if snap := m.Metrics(); snap != nil {
			fmt.Fprintln(stdout, "metrics:")
			fmt.Fprint(stdout, snap)
		}
		fmt.Fprint(stdout, m.TimeBreakdown())
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command and returns the exit status: 0 on success, 1 when
// the workload is unknown, the trace cannot be read or the run fails, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "record the workload's trace to this file")
	replay := fs.String("replay", "", "replay the trace in this file")
	info := fs.String("info", "", "print a summary of the trace in this file")
	name := fs.String("workload", "thrasher_rw", "workload to record (thrasher_ro, thrasher_rw, filescan)")
	memMB := fs.Int("mem", 2, "user memory in MB")
	sizeMB := fs.Int("size", 6, "working-set size in MB")
	useCC := fs.Bool("cc", false, "enable the compression cache (replay)")
	seed := fs.Int64("seed", 1, "random seed")
	var ob obsOptions
	fs.StringVar(&ob.events, "events", "", "export the run's event stream as JSONL to this file ('-' = stdout)")
	fs.BoolVar(&ob.timeline, "timeline", false, "print the run's event timeline (virtual time)")
	fs.BoolVar(&ob.summary, "summary", false, "print per-class event counts, the metrics snapshot and where the virtual time went")
	fs.StringVar(&ob.classes, "classes", "all", "event classes to trace, comma-separated (see obs docs); 'all' or 'none'")
	fs.IntVar(&ob.ring, "ring", 0, "event ring capacity (0 = default; oldest events drop beyond it)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Everything goes out through one buffer, flushed whatever the outcome.
	out := bufio.NewWriter(stdout)
	var err error
	switch {
	case *record != "":
		err = doRecord(out, *record, *name, *memMB, *sizeMB, *seed, ob)
	case *replay != "":
		err = doReplay(out, *replay, *memMB, *useCC, *seed, ob)
	case *info != "":
		err = doInfo(out, *info)
	default:
		fmt.Fprintln(stderr, "cctrace: one of -record, -replay or -info is required")
		return 2
	}
	if err = errors.Join(err, out.Flush()); err != nil {
		fmt.Fprintln(stderr, "cctrace:", err)
		return 1
	}
	return 0
}

func doRecord(stdout io.Writer, path, name string, memMB, sizeMB int, seed int64, ob obsOptions) error {
	pages := int32(sizeMB << 20 / 4096)
	var w workload.Workload
	switch name {
	case "thrasher_ro":
		w = &workload.Thrasher{Pages: pages, Write: false, Passes: 2, Seed: seed}
	case "thrasher_rw":
		w = &workload.Thrasher{Pages: pages, Write: true, Passes: 2, Seed: seed}
	case "filescan":
		w = &workload.FileScan{FileBytes: int64(sizeMB) << 20, Passes: 2, Seed: seed}
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
	opts, err := ob.options()
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Default(int64(memMB)<<20), opts...)
	if err != nil {
		return err
	}
	var rec trace.Recorder
	m.VM.SetTraceHook(rec.Note)
	if err := w.Run(m); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := rec.WriteTo(f)
	if err = errors.Join(err, f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d references (%d bytes) from %s to %s\n",
		len(rec.Refs), n, w.Name(), path)
	return ob.report(stdout, m)
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

func doReplay(stdout io.Writer, path string, memMB int, useCC bool, seed int64, ob obsOptions) error {
	refs, err := readTrace(path)
	if err != nil {
		return err
	}
	opts, err := ob.options()
	if err != nil {
		return err
	}
	cfg := machine.Default(int64(memMB) << 20)
	mode := "baseline"
	if useCC {
		cfg = cfg.WithCC()
		mode = "compression cache"
	}
	m, st, err := workload.MeasureMachine(cfg, &workload.Replay{Refs: refs, Seed: seed}, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d references on %d MB (%s)\n\n", len(refs), memMB, mode)
	fmt.Fprint(stdout, st)
	return ob.report(stdout, m)
}

func doInfo(stdout io.Writer, path string) error {
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
	fmt.Fprintf(stdout, "%s: %d references, %d segment(s), %.1f%% writes\n",
		path, len(refs), len(segs), 100*float64(writes)/float64(max(len(refs), 1)))
	slices.SortFunc(segs, func(a, b trace.Segment) int { return cmp.Compare(a.ID, b.ID) })
	for _, seg := range segs {
		fmt.Fprintf(stdout, "  segment %d: %d pages (%.1f MB)\n", seg.ID, seg.Pages, float64(seg.Pages)*4096/(1<<20))
	}
	return nil
}
