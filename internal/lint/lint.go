// Package lint is the project's custom static-analysis framework (cclint).
//
// The reproduction rests on two invariants that ordinary tooling does not
// enforce:
//
//  1. Virtual-time purity — simulated costs come only from the virtual
//     clock in internal/sim. A single stray time.Now() turns the paper's
//     Table 1 / Figure 3 numbers into artifacts of the host machine.
//  2. Determinism — every experiment is byte-identical at any -j. One
//     unseeded rand call or one iteration in map order silently breaks the
//     guarantee.
//
// Both are also checked at run time: every experiment's output is compared
// byte for byte with a golden. cclint keeps the rules whose breaches no
// test is sure to see: host state read anywhere (walltime), iteration in
// map order anywhere (maprange), and scheduler-visible primitives outside
// internal/runner (kernelproto). The framework is
// deliberately stdlib-only: the build environment has no network, so
// golang.org/x/tools is off the table. The engine loads the whole module
// at once and type-checks it with go/types (one shared types.Info across
// packages, the standard library read from the toolchain's export data),
// so every analyzer asks the type checker what an identifier is instead of
// guessing from its spelling (facts.go). A tree that does not type-check
// is a load error, never a partial lint. There is no call graph: the one
// invariant that used to need one — who may touch the host scheduler — is
// a fact about packages, not call chains (kernelproto.go).
//
// Nothing suppresses a finding. The one lock outside internal/runner that
// has to stay is a named row, with its reason, in kernelproto's table of
// real locks; every other finding is fixed in the code.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the conventional compiler-style form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named check. Check is called once per selected package;
// module-wide context (other packages, type info) is reached through
// pkg.Mod.
type Analyzer interface {
	// Name is the identifier used in output.
	Name() string
	// Doc is a one-line description of what the analyzer enforces.
	Doc() string
	// Check reports all findings in pkg.
	Check(pkg *Package) []Diagnostic
}

// All returns the full cclint analyzer suite, in stable order: the ban on
// host state, the ban on map order, then the package rule: scheduler-visible
// primitives outside internal/runner (kernelproto).
func All() []Analyzer {
	return []Analyzer{
		Walltime{},
		MapRange{},
		KernelProto{},
	}
}

// diag builds a Diagnostic at a node's position.
func diag(pkg *Package, name string, n ast.Node, format string, args ...any) Diagnostic {
	pos := pkg.Fset.Position(n.Pos())
	return Diagnostic{
		Analyzer: name,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Run applies the whole suite (All) to every selected package and returns
// the findings sorted by position.
func Run(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range All() {
			out = append(out, a.Check(pkg)...)
		}
	}
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return out
}
