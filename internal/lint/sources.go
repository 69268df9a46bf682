package lint

// The nondeterminism source table and the sort sanitizer: what walltime,
// globalrand and maprange share. Host-dependent values are banned where
// they would be minted — no analyzer follows one afterwards — and map
// order is fixed where it is collected; that the result holds end to end
// is proven at run time by the byte-identity tests at different -j.

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// nondetSource is one row of the source table: the single list of
// host-dependent standard-library entry points, each banned module-wide
// by one analyzer.
type nondetSource struct {
	// pkgs are the import paths the row's functions live in.
	pkgs []string
	// names are the package-level functions; nil means every exported one
	// except the seeded constructors (randConstructors).
	names []string
	// ban names the analyzer that forbids any reference to these functions,
	// called or handed around as a value.
	ban string
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
// time.Duration as its unit of virtual time.
var nondetSources = []nondetSource{
	{pkgs: []string{"time"}, names: []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"}, ban: "walltime",
		call:  "wall-clock call %s contaminates virtual-time measurements; advance the sim clock instead",
		value: "wall-clock func %s referenced as a value; whatever calls it reads the host clock"},
	{pkgs: randPkgs, ban: "globalrand",
		call:  "%s uses the process-global source; thread a seeded *rand.Rand instead",
		value: "%s referenced as a value; whatever calls it draws from the process-global source"},
	{pkgs: []string{"os"}, names: []string{"Getenv", "LookupEnv", "Environ", "Getpid", "Getppid", "Hostname"}, ban: "walltime",
		call: hostStateCall, value: hostStateValue},
	{pkgs: []string{"runtime"}, names: []string{"NumGoroutine", "NumCPU"}, ban: "walltime",
		call: hostStateCall, value: hostStateValue},
}

const (
	hostStateCall  = "host-state call %s ties the run to the machine it runs on; pass the value in as an explicit option"
	hostStateValue = "host-state func %s referenced as a value; whatever calls it reads the host's state"
)

// randPkgs are the two generations of math/rand; randConstructors are their
// package-level names that do not touch the global source.
var (
	randPkgs         = []string{"math/rand", "math/rand/v2"}
	randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}
)

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

// bannedRefs reports every reference in pkg to a function the named
// analyzer bans. Each reference is resolved to its *types.Func, so a
// renamed or dot import, a local variable named after the package and a
// method like t.After(u) are all told apart by identity, not spelling.
func bannedRefs(pkg *Package, analyzer string) []Diagnostic {
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
			if row == nil || row.ban != analyzer {
				return true
			}
			msg := row.value
			if called[n] {
				msg = row.call
			}
			out = append(out, diag(pkg, analyzer, n, msg, fn.Pkg().Name()+"."+fn.Name()))
			return false // the selector's own identifiers name the same function
		})
	}
	return out
}

// sortFuncs are the standard-library functions that sort their argument
// in place, by package path. Everything else spelled sort.X or slices.X
// (Search, Contains, Reverse, Clone ...) leaves map order as it found it.
var sortFuncs = map[string][]string{
	"sort":   {"Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s"},
	"slices": {"Sort", "SortFunc", "SortStableFunc"},
}

// sanitizerCall reports whether a call sorts its arguments: one of
// sortFuncs, resolved through the type checker whatever the file calls
// the package, or a package-local helper whose name starts with "sort"
// (sortPageKeys(keys)).
func sanitizerCall(info *types.Info, call *ast.CallExpr) bool {
	fn := funcValueOf(info, call.Fun)
	if fn == nil {
		return false
	}
	if names, ok := sortFuncs[pkgPath(fn)]; ok {
		return slices.Contains(names, fn.Name())
	}
	_, unqualified := ast.Unparen(call.Fun).(*ast.Ident)
	return unqualified && strings.HasPrefix(fn.Name(), "sort")
}

// sortedObjects returns every variable a function body hands to a
// sanitizer anywhere — the collect-then-sort idiom. maprange lets an
// append into such a variable pass.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	sorted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && sanitizerCall(info, call) {
			for _, arg := range call.Args {
				if id := rootIdent(arg); id != nil {
					if obj := objectOf(info, id); obj != nil {
						sorted[obj] = true
					}
				}
			}
		}
		return true
	})
	return sorted
}
