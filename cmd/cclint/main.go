// Command cclint runs the project's custom static-analysis suite: the
// determinism and virtual-time invariants the reproduction depends on.
//
// Usage:
//
//	cclint [-json] [-list] [-only a,b] [packages...]
//
// Packages default to ./... . Patterns follow the go tool's shape
// ("./...", "./internal/...", or plain directories); whatever the
// patterns, the whole module is loaded and type-checked so every identifier
// resolves to the same object everywhere — patterns only select which
// packages' findings are reported. cclint reads the source
// tree and nothing else. Exit status is 0 when the tree is clean, 1 when
// any finding survives, and 2 on usage or load errors.
//
// -only runs a comma-separated subset of the suite — the iteration loop
// for a single analyzer on a subtree, e.g.
//
//	cclint -only kernelproto ./internal/cluster
//
// Ignore directives naming unselected analyzers stay valid (the unused-
// directive hygiene check is skipped in filtered runs).
//
// Findings are suppressed one line at a time, with a mandatory reason:
//
//	start := time.Now() //cclint:ignore walltime -- host-time progress line
//
// See internal/lint for the analyzers and DESIGN.md ("Static analysis
// engine") for the typed fact layer and why each rule exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
	only := fs.String("only", "", "comma-separated analyzer names to run instead of the full suite")
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
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
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

	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "cclint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
