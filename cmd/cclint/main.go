// Command cclint runs the project's custom static-analysis suite: the
// determinism and virtual-time invariants the reproduction depends on.
//
// Usage:
//
//	cclint [-json] [-list] [-werror] [-only a,b] [-baseline file]
//	       [-write-baseline] [-effects file] [-write-effects]
//	       [-taint-report file] [packages...]
//
// Packages default to ./... . Patterns follow the go tool's shape
// ("./...", "./internal/...", or plain directories); whatever the
// patterns, the whole module is loaded and type-checked so cross-package
// analyses (crosscredit, obscoverage) see every call path — patterns only
// select which packages' findings are reported. Exit status is 0 when the
// tree is clean (warn-severity findings do not fail unless -werror), 1
// when there are error findings, and 2 on usage or load errors.
//
// -only runs a comma-separated subset of the suite — the iteration loop
// for a single analyzer on a subtree, e.g.
//
//	cclint -only kernelproto ./internal/cluster
//
// Ignore directives naming unselected analyzers stay valid (the unused-
// directive hygiene check is skipped in filtered runs).
//
// -taint-report writes the dataflow engine's full source→sink flow table
// as JSON — every nondeterministic value reaching a replayable output,
// with its call chain — for CI to archive alongside the effects manifest.
//
// Findings are suppressed one line at a time, with a mandatory reason:
//
//	start := time.Now() //cclint:ignore walltime -- host-time progress line
//
// or, for incremental adoption of a new analyzer, recorded wholesale with
// -write-baseline into .cclint-baseline.json and burned down over time —
// CI fails while the checked-in baseline is non-empty.
//
// -write-effects regenerates .cclint-effects.json, the manifest of every
// exported function's inferred effect set; the effectdrift analyzer warns
// when a function's effects grow beyond the recorded entry. The file is
// byte-deterministic, so CI can regenerate it and fail on any diff
// (a stale manifest means an unreviewed effect change).
//
// See internal/lint for the analyzers and DESIGN.md ("Static analysis
// engine") for the call-graph machinery and why each rule exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"compcache/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it lints the module containing the working
// directory and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	werror := fs.Bool("werror", false, "treat warn-severity findings as errors for the exit status")
	baselinePath := fs.String("baseline", ".cclint-baseline.json", "baseline file (module-root-relative unless absolute); missing file = empty baseline")
	writeBaseline := fs.Bool("write-baseline", false, "record current findings into the baseline file and exit 0")
	effectsPath := fs.String("effects", lint.EffectsFile, "effects manifest (module-root-relative unless absolute); missing file = no drift checks")
	writeEffects := fs.Bool("write-effects", false, "record the inferred effects of every exported function into the manifest and exit 0")
	only := fs.String("only", "", "comma-separated analyzer names to run instead of the full suite")
	taintReport := fs.String("taint-report", "", "write the taint source→sink flow report to this JSON file and exit 0")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// fail reports a usage, load or I/O error: exit status 2.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cclint:", err)
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %-5s %s\n", a.Name(), a.Severity(), a.Doc())
		}
		return 0
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		return fail(err)
	}
	for _, terr := range mod.TypeErrors {
		fmt.Fprintln(stderr, "cclint: type error:", terr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := mod.Select(".", patterns)
	if err != nil {
		return fail(err)
	}
	if len(pkgs) == 0 {
		return fail(errors.New("no Go packages matched"))
	}
	// inRoot resolves a path flag against the module root.
	inRoot := func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(mod.Root, p)
	}

	ep := inRoot(*effectsPath)
	if *writeEffects {
		if err := lint.WriteEffects(ep, mod); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "cclint: wrote effects manifest to %s\n", ep)
		return 0
	}
	mod.EffectsPath = ep

	if *taintReport != "" {
		tp := inRoot(*taintReport)
		if err := lint.WriteTaintReport(tp, mod); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "cclint: wrote taint report to %s\n", tp)
		return 0
	}

	var diags []lint.Diagnostic
	if *only != "" {
		names := strings.Split(*only, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		diags, err = lint.RunOnly(pkgs, analyzers, names)
		if err != nil {
			return fail(err)
		}
	} else {
		diags = lint.Run(pkgs, analyzers)
	}

	bp := inRoot(*baselinePath)
	if *writeBaseline {
		if err := lint.WriteBaseline(bp, mod.Root, diags); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "cclint: wrote %d finding(s) to %s\n", len(diags), bp)
		return 0
	}
	entries, err := lint.LoadBaseline(bp)
	if err != nil {
		return fail(err)
	}
	diags, suppressed := lint.ApplyBaseline(entries, mod.Root, diags)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	if len(diags) > 0 || suppressed > 0 {
		if !*jsonOut || suppressed > 0 {
			fmt.Fprintf(stderr, "cclint: %d finding(s), %d suppressed by baseline\n", len(diags), suppressed)
		}
	}
	if lint.ErrorCount(diags) > 0 || (*werror && len(diags) > 0) {
		return 1
	}
	return 0
}
