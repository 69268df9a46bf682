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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"compcache/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list the analyzers and exit")
	werror := flag.Bool("werror", false, "treat warn-severity findings as errors for the exit status")
	baselinePath := flag.String("baseline", ".cclint-baseline.json", "baseline file (module-root-relative unless absolute); missing file = empty baseline")
	writeBaseline := flag.Bool("write-baseline", false, "record current findings into the baseline file and exit 0")
	effectsPath := flag.String("effects", lint.EffectsFile, "effects manifest (module-root-relative unless absolute); missing file = no drift checks")
	writeEffects := flag.Bool("write-effects", false, "record the inferred effects of every exported function into the manifest and exit 0")
	only := flag.String("only", "", "comma-separated analyzer names to run instead of the full suite")
	taintReport := flag.String("taint-report", "", "write the taint source→sink flow report to this JSON file and exit 0")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %-5s %s\n", a.Name(), a.Severity(), a.Doc())
		}
		return
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	for _, terr := range mod.TypeErrors {
		fmt.Fprintln(os.Stderr, "cclint: type error:", terr)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := mod.Select(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "cclint: no Go packages matched")
		os.Exit(2)
	}

	ep := *effectsPath
	if !filepath.IsAbs(ep) {
		ep = filepath.Join(mod.Root, ep)
	}
	if *writeEffects {
		if err := lint.WriteEffects(ep, mod); err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cclint: wrote effects manifest to %s\n", ep)
		return
	}
	mod.EffectsPath = ep

	if *taintReport != "" {
		tp := *taintReport
		if !filepath.IsAbs(tp) {
			tp = filepath.Join(mod.Root, tp)
		}
		if err := lint.WriteTaintReport(tp, mod); err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cclint: wrote taint report to %s\n", tp)
		return
	}

	var diags []lint.Diagnostic
	if *only != "" {
		names := strings.Split(*only, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		diags, err = lint.RunOnly(pkgs, analyzers, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
	} else {
		diags = lint.Run(pkgs, analyzers)
	}

	bp := *baselinePath
	if !filepath.IsAbs(bp) {
		bp = filepath.Join(mod.Root, bp)
	}
	if *writeBaseline {
		if err := lint.WriteBaseline(bp, mod.Root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cclint: wrote %d finding(s) to %s\n", len(diags), bp)
		return
	}
	entries, err := lint.LoadBaseline(bp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	diags, suppressed := lint.ApplyBaseline(entries, mod.Root, diags)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	fail := lint.ErrorCount(diags) > 0 || (*werror && len(diags) > 0)
	if len(diags) > 0 || suppressed > 0 {
		if !*jsonOut || suppressed > 0 {
			fmt.Fprintf(os.Stderr, "cclint: %d finding(s), %d suppressed by baseline\n", len(diags), suppressed)
		}
	}
	if fail {
		os.Exit(1)
	}
}
