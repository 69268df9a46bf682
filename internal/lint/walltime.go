package lint

import (
	"go/ast"
	"go/types"
)

// Walltime forbids host wall-clock calls. Every simulated cost must come
// from the virtual clock (internal/sim.Clock): the paper's Table 1 and
// Figure 3 numbers are virtual-time artifacts, so one stray time.Now()
// quietly couples results to the host machine, the Go scheduler and the
// garbage collector. The analyzer runs over the whole module — command
// front-ends that deliberately report host time (ccbench's closing
// summary) carry an ignore directive with the reason spelled out.
//
// The banned functions are the source table's walltime rows
// (dataflow.go), and each reference is resolved to its *types.Func, so a
// renamed or dot import, a local variable named time and a method like
// t.After(u) are all told apart by identity, not spelling.
type Walltime struct{}

// Name implements Analyzer.
func (Walltime) Name() string { return "walltime" }

// Doc implements Analyzer.
func (Walltime) Doc() string {
	return "forbid host wall-clock reads (time.Now/Since/Sleep/...); the virtual clock is the only time source"
}

// Check implements Analyzer.
func (w Walltime) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, f := range pkg.Files {
		// A call's target is visited after the call itself, which is how
		// time.Now() is told from time.Now handed around as a value (a
		// callback, a field default, a func variable) — the value form
		// smuggles the host clock past a call-only check.
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
			if !bannedBy(fn, w.Name()) {
				return true
			}
			if called[n] {
				out = append(out, diag(pkg, w.Name(), n,
					"wall-clock call time.%s contaminates virtual-time measurements; advance the sim clock instead",
					fn.Name()))
			} else {
				out = append(out, diag(pkg, w.Name(), n,
					"wall-clock func time.%s referenced as a value; whatever calls it reads the host clock",
					fn.Name()))
			}
			return false // the selector's own identifiers name the same function
		})
	}
	return out
}
