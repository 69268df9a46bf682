package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// Walltime forbids reading the host's state. Every simulated cost must
// come from the virtual clock (internal/sim.Clock): the paper's Table 1
// and Figure 3 numbers are virtual-time artifacts, so one stray
// time.Now() quietly couples results to the host machine, the Go
// scheduler and the garbage collector — and an environment variable, a
// core count or a draw from the process-global random source (seeded from
// the host) read mid-run does the same to any other number. The analyzer
// runs over the whole module, command front-ends included.
//
// The banned functions are the rows of nondetSources, called or handed
// around as values. A host-dependent value is banned where it would be
// minted; nothing follows one afterwards, and the byte-identity tests at
// different -j prove at run time that the result holds end to end.
type Walltime struct{}

// Name implements Analyzer.
func (Walltime) Name() string { return "walltime" }

// Doc implements Analyzer.
func (Walltime) Doc() string {
	return "forbid reads of host state: clock, environment, scheduler facts, the global random source (time.Now/Sleep, os.Getenv, runtime.NumCPU, rand.Intn, ...); the virtual clock is the only time source"
}

// nondetSource is one row of the source table: host-dependent
// standard-library entry points and how a reference to one is worded.
type nondetSource struct {
	// pkgs are the import paths the row's functions live in.
	pkgs []string
	// names are the package-level functions; nil means every exported one
	// except the seeded constructors (randConstructors).
	names []string
	// call and value describe the function in the ban message, as patterns
	// over its qualified name ("time.Now"): one for a call, one for a
	// reference that hands the function around as a value (a callback, a
	// field default, a func variable), which smuggles it past a call-only
	// check.
	call, value string
}

// nondetSources is the table. The time row forbids reads of and waits on
// the host clock only: types and pure arithmetic (time.Duration,
// time.Microsecond, d.Round(...)) are fine — the simulation uses
// time.Duration as its unit of virtual time. Methods on a seeded
// *rand.Rand are the sanctioned source of randomness; a seed read from
// the host is caught where it is read (time.Now, os.Getpid).
var nondetSources = []nondetSource{
	{pkgs: []string{"time"}, names: []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"},
		call:  "wall-clock call %s contaminates virtual-time measurements; advance the sim clock instead",
		value: "wall-clock func %s referenced as a value; whatever calls it reads the host clock"},
	{pkgs: []string{"math/rand", "math/rand/v2"},
		call:  "%s uses the process-global source; thread a seeded *rand.Rand instead",
		value: "%s referenced as a value; whatever calls it draws from the process-global source"},
	{pkgs: []string{"os"}, names: []string{"Getenv", "LookupEnv", "Environ", "Getpid", "Getppid", "Hostname"},
		call: hostStateCall, value: hostStateValue},
	{pkgs: []string{"runtime"}, names: []string{"NumGoroutine", "NumCPU"},
		call: hostStateCall, value: hostStateValue},
}

const (
	hostStateCall  = "host-state call %s ties the run to the machine it runs on; pass the value in as an explicit option"
	hostStateValue = "host-state func %s referenced as a value; whatever calls it reads the host's state"
)

// randConstructors are math/rand's package-level names that do not touch
// the global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// nondetSourceOf returns fn's row in the source table, or nil. Only
// package-level functions match: t.After(u) compares two values, and
// methods on a seeded *rand.Rand are the sanctioned determinism idiom.
func nondetSourceOf(fn *types.Func) *nondetSource {
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	for i := range nondetSources {
		row := &nondetSources[i]
		if !slices.Contains(row.pkgs, pkgPath(fn)) {
			continue
		}
		if (row.names == nil && fn.Exported() && !randConstructors[fn.Name()]) || slices.Contains(row.names, fn.Name()) {
			return row
		}
	}
	return nil
}

// Check implements Analyzer: it reports every reference in pkg to a
// function in the source table. Each reference is resolved to its
// *types.Func, so a renamed or dot import, a local variable named after the
// package and a method like t.After(u) are all told apart by identity, not
// spelling.
func (w Walltime) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, f := range pkg.Files {
		// A call's target is visited after the call itself, which is how
		// time.Now() is told from time.Now handed around as a value.
		called := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var fn *types.Func
			switch n := n.(type) {
			case *ast.CallExpr:
				called[ast.Unparen(n.Fun)] = true
				return true
			case *ast.Ident, *ast.SelectorExpr:
				fn = funcValueOf(info, n.(ast.Expr))
			}
			row := nondetSourceOf(fn)
			if row == nil {
				return true
			}
			msg := row.value
			if called[n] {
				msg = row.call
			}
			out = append(out, diag(pkg, w.Name(), n, msg, fn.Pkg().Name()+"."+fn.Name()))
			return false // the selector's own identifiers name the same function
		})
	}
	return out
}
