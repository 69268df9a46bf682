// Command ccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ccbench -list
//	ccbench [-scale small|paper] [-run name1,name2,...] [-j N] [-format text|csv] [-cpuprofile PATH]
//
// Every experiment is registered under a stable name (see -list); -run
// accepts exact names, the group names "ablations" and "extensions", and
// "all" (the default). -format csv prints every table as comma-separated
// values, the machine-readable form of every result.
//
// Each experiment prints the same rows or series the paper reports; the
// paper's published values are included alongside where applicable (Table 1)
// so the shape comparison is immediate. At the paper scale the full suite
// takes a few minutes of host time; the virtual-time measurements themselves
// are deterministic.
//
// -j caps how many simulated machines run concurrently: 0 (the default)
// uses one worker per core, 1 forces serial execution. Every machine runs
// on its own virtual clock with its own cloned workload, so the output is
// byte-for-byte identical at any -j.
//
// -cpuprofile writes a host CPU profile of the run (for go tool pprof), each
// sample labelled with the experiment it was taken in, worker goroutines
// included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"compcache/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it runs the selected experiments, prints their
// tables on stdout and returns the exit status — 0 done, 1 an experiment
// failed, 2 a usage error (with the message on stderr).
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("ccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "small", "experiment scale: small or paper")
	runFlag := fs.String("run", "all", "comma-separated experiment names (see -list); groups: ablations, extensions, all")
	listFlag := fs.Bool("list", false, "list registered experiment names and exit")
	format := fs.String("format", "text", "output format for tables: text or csv")
	jobs := fs.Int("j", 0, "max concurrent simulated machines (0 = one per core, 1 = serial); output is identical at any value")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the run to this file, its samples labelled by experiment")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// fail reports an error on stderr and hands back the exit status.
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "ccbench:", err)
		return status
	}

	if *listFlag {
		for _, name := range exp.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *format != "text" && *format != "csv" {
		return fail(2, fmt.Errorf("unknown format %q", *format))
	}

	var scale exp.Scale
	switch *scaleFlag {
	case "small":
		scale = exp.Small
	case "paper":
		scale = exp.Paper
	default:
		return fail(2, fmt.Errorf("unknown scale %q", *scaleFlag))
	}

	experiments, err := exp.Resolve(strings.Split(*runFlag, ","))
	if err != nil {
		// Bad selection is a usage error (exit 2), like a bad flag value.
		return fail(2, err)
	}
	if len(experiments) == 0 {
		return fail(2, fmt.Errorf("nothing selected by %q", *runFlag))
	}

	opts := exp.Options{Scale: scale, Parallelism: *jobs}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		defer func() {
			if err := stop(); err != nil && status == 0 {
				status = fail(1, err)
			}
		}()
	}

	ctx := context.Background()
	for _, e := range experiments {
		var res exp.Result
		pprof.Do(ctx, pprof.Labels("experiment", e.Name), func(ctx context.Context) {
			res, err = e.Run(ctx, opts)
		})
		if err != nil {
			return fail(1, err)
		}
		for _, tab := range res.Tables() {
			if *format == "csv" {
				fmt.Fprintf(stdout, "# %s\n%s\n", tab.Title, tab.CSV())
			} else {
				fmt.Fprintln(stdout, tab)
			}
		}
	}
	return 0
}

// startCPUProfile starts a host CPU profile written to path; the returned
// stop ends it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
