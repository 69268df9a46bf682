// Command ccperf is the repository's performance ledger: it drives the
// simulator through its public functions only, in one process, one leg at a
// time, and prints every metric BENCHMARK.json names, checking the simulated
// results against an oracle as it goes. See ../README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

//go:embed testdata/golden-seed1.json
var goldenJSON []byte

// goldenSeed is the seed whose digests are checked in.
const goldenSeed = 1

// golden maps scale, workload and leg name to the leg's digest.
type golden map[string]map[string]map[string]string

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: apps, resident, stores or fleet")
		seed      = flag.Int64("seed", goldenSeed, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 24, "host seconds to spend measuring")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and the layer drivers and reports the per-layer metrics")
		scaleName = flag.String("scale", "full", "input sizes: full or smoke")
		layers    = flag.Bool("layers", false, "run only the isolated layer drivers")
		compare   = flag.Bool("compare", false, "compare two ledger files (arguments: a.json b.json) against the bounds in -benchmark")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
		out       = flag.String("out", "", "ledger file to merge this run's metrics into")
		commit    = flag.String("commit", "", "commit id recorded in the -out file")
		outDir    = flag.String("outdir", "bench/out", "directory the traced pass writes trace_<workload>.jsonl to")
		goldenOut = flag.String("update-golden", "", "write the default seed's digests to this file and exit")
	)
	flag.Parse()

	// One leg at a time on one processor: the ledger measures the simulator
	// at parallelism 1, and a fleet's actor hand-offs then stay on one OS
	// thread instead of waking a second one (which is both slower and, on a
	// shared box, much noisier).
	runtime.GOMAXPROCS(1)

	sc := full
	switch *scaleName {
	case "full":
	case "smoke":
		sc = smoke
	default:
		fatalf(2, "unknown scale %q", *scaleName)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf(2, "-compare needs two ledger files")
		}
		breaches, err := compareLedgers(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf(2, "%v", err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
	case *goldenOut != "":
		if err := writeGolden(*goldenOut); err != nil {
			fatalf(2, "%v", err)
		}
	case *layers:
		m := metrics{}
		if err := runLayers(m, sc, *seed); err != nil {
			fatalf(2, "%v", err)
		}
		for _, name := range sortedKeys(m) {
			fmt.Printf("%-40s %14.4f\n", name, m[name])
		}
	default:
		def, err := findWorkload(*workload)
		if err != nil {
			fatalf(2, "%v", err)
		}
		res, _, err := runWorkload(os.Stdout, runOpts{
			def: def, seed: *seed, seconds: *seconds, trace: *trace != 0, sc: sc, outDir: *outDir,
		})
		if err != nil {
			fatalf(2, "%v", err)
		}
		if *out != "" {
			if err := mergeLedger(*out, *commit, def.name, *trace != 0, res); err != nil {
				fatalf(2, "%v", err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf(2, "%v", err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccperf: "+format+"\n", args...)
	os.Exit(code)
}

type runOpts struct {
	def     workloadDef
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	outDir  string
}

// oracle counts legs attempted and failed. A leg fails on a returned error
// (workload, Machine.Err, CheckInvariants), on a digest that differs from
// the same leg's digest in the first rep — traced reps included — or, at the
// default seed, from the checked-in golden digest. A workload that has lost
// its defining property (see workloadDef.holds) counts as one more failure.
type oracle struct {
	w         io.Writer
	attempted int
	failed    int
}

func (o *oracle) failf(format string, args ...any) {
	o.failed++
	fmt.Fprintf(o.w, "FAILED  "+format+"\n", args...)
}

// check records one rep. first is the rep every later one must reproduce
// (nil for the first rep itself and for warm-up reps at another scale).
func (o *oracle) check(what string, legs []leg, rep repResult, first *repResult) {
	o.attempted += len(legs)
	for i, l := range legs {
		switch d := rep.digests[i]; {
		case strings.HasPrefix(d, "error: "):
			o.failf("%s leg %s: %s", what, l.name, d)
		case first != nil && d != first.digests[i]:
			o.failf("%s leg %s: digest %s differs from the first rep's %s", what, l.name, d, first.digests[i])
		}
	}
}

// checkFirst records the first timed rep: its own errors, the workload's
// defining property and, at the default seed, the checked-in digests.
func (o *oracle) checkFirst(g golden, opts runOpts, legs []leg, rep repResult) {
	o.check("rep 1", legs, rep, nil)
	if opts.def.holds != nil && rep.failed == 0 {
		if err := opts.def.holds(sumLegs(rep.outs)); err != nil {
			o.failf("workload %s: %v", opts.def.name, err)
		}
	}
	if opts.seed != goldenSeed {
		return
	}
	want := g[opts.sc.String()][opts.def.name]
	for i, l := range legs {
		if d := rep.digests[i]; !strings.HasPrefix(d, "error: ") && d != want[l.name] {
			o.failf("leg %s: digest %s differs from the golden %q", l.name, d, want[l.name])
		}
	}
}

// minReps is the fewest timed reps a run reports a median of.
func minReps(sc scale) int {
	if sc == smoke {
		return 2
	}
	return 3
}

// layerBudget is the host time the layer drivers take at full scale; the
// traced pass leaves it free at the end of -seconds.
const layerBudget = 9.0

// runWorkload runs one workload in one mode and returns the result line and
// the first timed rep's digests, one per leg.
func runWorkload(w io.Writer, o runOpts) (result, []string, error) {
	orc := &oracle{w: w}

	// Set-up: everything between process start and the first timed rep.
	// Building the legs and parsing the golden file is cheap; the warm-up rep
	// at smoke scale is what pays for first-use work (heap growth, lazily
	// built tables, anything a later change moves out of the timed reps).
	// One process can only start once, so the repeatable part is run several
	// times and setup_s is the time to reach it plus its median, at reference
	// speed like every host time (see calibrate.go).
	setupRuns := 5
	if o.sc == smoke || o.trace {
		setupRuns = 1 // one warm-up; only the untraced run reports setup_s
	}
	if o.trace {
		if err := registerTracedCodecs(); err != nil {
			return result{}, nil, err
		}
	}
	reach := secondsSince(processStart)
	var (
		legs       []leg
		gold       golden
		setupTimes []float64
	)
	for i := 0; i < setupRuns; i++ {
		t0 := hostNow()
		legs = o.def.legs(o.sc, o.seed)
		gold = nil
		if err := json.Unmarshal(goldenJSON, &gold); err != nil {
			return result{}, nil, fmt.Errorf("golden file: %w", err)
		}
		warmLegs := o.def.legs(smoke, o.seed)
		prepared := secondsSince(t0)
		warm := runRep(warmLegs, nil)
		setupTimes = append(setupTimes, (prepared+warm.wall)*warm.speed())
		orc.check("warm-up", warmLegs, warm, nil)
	}
	setupS := reach + median(setupTimes)

	m := metrics{}
	var digests []string
	if o.trace {
		var err error
		if digests, err = tracedPass(w, o, orc, legs, gold, m); err != nil {
			return result{}, nil, err
		}
	} else {
		m["setup_s"] = setupS
		digests = untracedPass(w, o, orc, legs, gold, m)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   orc.failed == 0,
		Attempted: orc.attempted,
		Failed:    orc.failed,
		Metrics:   m.report(defs),
	}
	fmt.Fprintf(w, "\nworkload %s  seed %d  scale %s  legs attempted %d  failed %d\n",
		o.def.name, o.seed, o.sc, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, m[d.name], d.unit)
	}
	return res, digests, nil
}

// untracedPass times reps until -seconds is used up and reports the
// end-to-end metrics as medians over the reps.
func untracedPass(w io.Writer, o runOpts, orc *oracle, legs []leg, gold golden, m metrics) []string {
	var reps []repResult
	measured := func(r repResult) float64 { return r.wall }
	t0 := hostNow()
	for len(reps) < minReps(o.sc) || secondsSince(t0)+medianOf(reps, measured) < o.seconds {
		rep := runRep(legs, nil)
		if len(reps) == 0 {
			orc.checkFirst(gold, o, legs, rep)
		} else {
			orc.check(fmt.Sprintf("rep %d", len(reps)+1), legs, rep, &reps[0])
		}
		reps = append(reps, rep)
	}
	t := sumLegs(reps[0].outs)
	wall := medianOf(reps, repResult.refWall)
	m["wall_s"] = wall
	m["refs_per_s"] = float64(t.run.VM.Refs) / wall
	m["faults_per_s"] = float64(t.run.VM.Faults) / wall
	m["alloc_mb"] = medianOf(reps, func(r repResult) float64 { return r.allocMB })
	m["mallocs_k"] = medianOf(reps, func(r repResult) float64 { return r.mallocsK })

	fmt.Fprintf(w, "%d timed reps: median %.3f s as measured, %.3f s at reference speed (the box ran at %.0f%% of it)\n",
		len(reps), medianOf(reps, measured), wall, 100*medianOf(reps, repResult.speed))
	fmt.Fprintf(w, "host seconds per leg, as measured:\n")
	for i, l := range legs {
		lw := make([]float64, len(reps))
		for j, r := range reps {
			lw[j] = r.legWall[i]
		}
		fmt.Fprintf(w, "  %-22s median %8.3f s  digest %s  reps %.3f\n", l.name, median(lw), reps[0].digests[i], lw)
	}
	return reps[0].digests
}

// tracedPass alternates untraced and traced reps, then runs the layer
// drivers, and reports the per-layer metrics.
func tracedPass(w io.Writer, o runOpts, orc *oracle, legs []leg, gold golden, m metrics) ([]string, error) {
	budget := o.seconds / 2
	if o.sc == full && o.seconds > 2*layerBudget {
		budget = o.seconds - layerBudget
	}
	pairs := minReps(o.sc) - 1

	var first *repResult
	var plain, traced []float64 // rep times at reference speed
	var speeds []float64        // the box's speed during each rep, 1 = reference
	var sums []traceSummary
	var tr *tracer // one span buffer, sized after the first rep and reused
	t0 := hostNow()
	for len(traced) < pairs || secondsSince(t0)+median(plain)+median(traced) < budget {
		rep := runRep(legs, nil)
		if first == nil {
			orc.checkFirst(gold, o, legs, rep)
			first = &rep
			tr = newTracer(spanEstimate(legs, rep.outs))
		} else {
			orc.check("untraced rep", legs, rep, first)
		}
		plain = append(plain, rep.refWall())
		speeds = append(speeds, rep.speed())

		tr.spans = tr.spans[:0]
		activeTracer = tr
		trep := runRep(legs, tr)
		activeTracer = nil
		orc.check("traced rep", legs, trep, first)
		traced = append(traced, trep.refWall())
		speeds = append(speeds, trep.speed())
		sums = append(sums, tr.analyze())
	}

	exactCounts(m, o.def, legs, first.outs)
	pick := func(f func(traceSummary) float64) float64 { return medianOf(sums, f) }
	m["vm.ref_path_self_s"] = pick(func(s traceSummary) float64 { return s.self[spanLeg] })
	m["machine.new_self_s"] = pick(func(s traceSummary) float64 { return s.self[spanMachineNew] })
	m["machine.pagein_self_s"] = pick(func(s traceSummary) float64 { return s.self[spanPageIn] })
	m["machine.pageout_self_s"] = pick(func(s traceSummary) float64 { return s.self[spanPageOut] })
	m["compress.compress_self_s"] = pick(func(s traceSummary) float64 { return s.self[spanCompress] })
	m["compress.decompress_self_s"] = pick(func(s traceSummary) float64 { return s.self[spanDecompress] })
	m["machine.pagein_p50_us"] = pick(func(s traceSummary) float64 { return s.pageinP50 })
	m["machine.pagein_p99_us"] = pick(func(s traceSummary) float64 { return s.pageinP99 })
	m["machine.pageout_p50_us"] = pick(func(s traceSummary) float64 { return s.pageoutP50 })
	m["machine.pageout_p99_us"] = pick(func(s traceSummary) float64 { return s.pageoutP99 })
	m["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	m["runtime.host_speed_pct"] = 100 * median(speeds)
	fmt.Fprintf(w, "%d untraced + %d traced reps: median %.3f s untraced, %.3f s traced at reference speed (the box ran at %.0f%% of it), %d spans in the last\n",
		len(plain), len(traced), median(plain), median(traced), 100*median(speeds), len(tr.spans))

	if err := tr.writeJSONL(o.outDir, o.def.name); err != nil {
		return nil, err
	}
	if err := runLayers(m, o.sc, o.seed); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.peak_sys_mb"] = float64(ms.Sys) / (1 << 20)
	m["runtime.gc_cycles"] = float64(ms.NumGC)
	return first.digests, nil
}

// spanEstimate sizes the tracer from an untraced rep's exact counts: one
// span per pager call and codec call, three per leg.
func spanEstimate(legs []leg, outs []legOut) int {
	t := sumLegs(outs).run
	n := t.VM.Faults - t.VM.ColdFaults + t.VM.Evictions + t.Comp.Compressions + t.Comp.Decompressions
	return int(n) + 3*len(legs) + 64
}

// writeGolden regenerates the golden file: one rep of every workload at both
// scales with the default seed.
func writeGolden(path string) error {
	g := golden{}
	for _, sc := range []scale{full, smoke} {
		g[sc.String()] = map[string]map[string]string{}
		for _, def := range workloads {
			legs := def.legs(sc, goldenSeed)
			rep := runRep(legs, nil)
			if rep.failed > 0 {
				return fmt.Errorf("workload %s at scale %s: %d legs failed: %v", def.name, sc, rep.failed, rep.digests)
			}
			byLeg := map[string]string{}
			for i, l := range legs {
				byLeg[l.name] = rep.digests[i]
			}
			g[sc.String()][def.name] = byLeg
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
