// Package lint is the project's custom static-analysis framework (cclint).
//
// The reproduction rests on two invariants that ordinary tooling does not
// enforce:
//
//  1. Virtual-time purity — simulated costs come only from the virtual
//     clock in internal/sim. A single stray time.Now() turns the paper's
//     Table 1 / Figure 3 numbers into artifacts of the host machine.
//  2. Determinism — every experiment is byte-identical at any -j. One
//     unseeded rand call or one map iteration feeding an output stream
//     silently breaks the guarantee.
//
// cclint turns those tribal rules into CI-enforced law. The framework is
// deliberately stdlib-only: the build environment has no network, so
// golang.org/x/tools is off the table. Since PR 5 the engine loads the
// whole module at once and type-checks it with go/types (one shared
// types.Info across packages, stdlib resolved from GOROOT source), so
// every analyzer asks the type checker what an identifier is instead of
// guessing from its spelling (facts.go). There is no call graph: the one
// invariant that used to need one — who may touch the host scheduler — is
// a fact about packages, not call chains (kernelproto.go).
//
// Findings can be suppressed, one line at a time, with a written reason:
//
//	start := time.Now() //cclint:ignore walltime -- host-time progress report
//
// or, as a standalone comment, on the line directly below it. The reason
// after "--" is mandatory; a directive without one is itself a finding, as
// is a directive that no longer suppresses anything. That is the only
// suppression mechanism: cclint reads the source tree and nothing else,
// and any surviving finding fails it.
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
	// Name is the identifier used in output and in ignore directives.
	Name() string
	// Doc is a one-line description of what the analyzer enforces.
	Doc() string
	// Check reports all findings in pkg.
	Check(pkg *Package) []Diagnostic
}

// All returns the full cclint analyzer suite, in stable order: the three
// determinism analyzers on the nondeterminism source table and typed
// map-ness, the three per-function analyzers, then the package rule:
// scheduler-visible primitives outside internal/runner (kernelproto).
func All() []Analyzer {
	return []Analyzer{
		Walltime{},
		GlobalRand{},
		MapRange{},
		ErrDrop{},
		SharedWrite{},
		FloatOrder{},
		KernelProto{},
	}
}

// diag builds a Diagnostic at a node's position.
func diag(pkg *Package, name string, n ast.Node, format string, args ...any) Diagnostic {
	return diagAt(name, pkg.Fset.Position(n.Pos()), format, args...)
}

// diagAt builds a Diagnostic at a resolved position.
func diagAt(name string, pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{
		Analyzer: name,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Run applies every analyzer to every selected package, filters the
// findings through the //cclint:ignore directives, appends
// directive-hygiene findings (missing reason, unknown analyzer, unused
// directive), and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	return run(pkgs, analyzers, analyzers, true)
}

// RunOnly runs only the named analyzers from the suite — the -only
// iteration loop. Directive hygiene still validates names against the
// whole suite (so -only does not misreport known analyzers as unknown),
// and the unused-directive check is skipped entirely: a directive for an
// analyzer outside the selection legitimately suppresses nothing in a
// filtered run. An unknown name in names is an error.
func RunOnly(pkgs []*Package, suite []Analyzer, names []string) ([]Diagnostic, error) {
	byName := make(map[string]Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name()] = a
	}
	var selected []Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the suite)", n)
		}
		selected = append(selected, a)
	}
	return run(pkgs, suite, selected, false), nil
}

// run is the shared engine behind Run and RunOnly: known names come from
// the full suite, checks from the selection, and unused-directive
// hygiene only applies when the whole suite ran.
func run(pkgs []*Package, suite, selected []Analyzer, fullSuite bool) []Diagnostic {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name()] = true
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectIgnores(pkg, known)
		for _, a := range selected {
			for _, d := range a.Check(pkg) {
				if !dirs.suppress(d) {
					out = append(out, d)
				}
			}
		}
		out = append(out, dirs.hygiene(fullSuite)...)
	}
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return out
}
