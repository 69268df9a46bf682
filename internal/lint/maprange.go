package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `range` over a map whose body produces ordered output:
// appending to a slice, writing through fmt, or building a string. Go
// randomizes map iteration order per iteration, so any ordered artifact
// built this way differs from run to run — the exact shape that would
// break the byte-identical-at-any-j guarantee.
//
// The canonical deterministic patterns stay silent:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }   // ok: keys sorted below
//	sort.Strings(keys)
//
// and order-independent work (counting, summing, writing into another
// map, deleting entries) is never flagged.
//
// Map-ness is a question for the type checker, not for spelling: the
// ranged expression's type is looked up in the module's types.Info, so a
// map returned by a call, a variable of a named map type and a field
// declared in another package are all seen, and a slice that merely shares
// a name with a map field is not.
type MapRange struct{}

// Name implements Analyzer.
func (MapRange) Name() string { return "maprange" }

// Doc implements Analyzer.
func (MapRange) Doc() string {
	return "flag map iteration that feeds ordered output (append/print/string build) without sorting"
}

// Check implements Analyzer.
func (m MapRange) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, fn := range pkg.funcs {
		var sorted map[types.Object]bool // fn's sorted variables, found at its first map range
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMap(info.TypeOf(rs.X)) {
				return true
			}
			if sorted == nil {
				sorted = sortedObjects(info, fn.Body)
			}
			out = append(out, m.checkLoop(pkg, rs, sorted)...)
			return true
		})
	}
	return out
}

// checkLoop inspects one map-range body for order-dependent output.
func (m MapRange) checkLoop(pkg *Package, rs *ast.RangeStmt, sorted map[types.Object]bool) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) — ordered unless x is sorted somewhere in
			// the function (the collect-then-sort idiom).
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || builtinCall(info, call) != "append" {
					continue
				}
				if i < len(n.Lhs) {
					if dst := rootIdent(n.Lhs[i]); dst != nil && sorted[objectOf(info, dst)] {
						continue
					}
				}
				out = append(out, diag(pkg, m.Name(), call,
					"append inside map iteration captures random map order; collect and sort keys first"))
			}
			// s += expr on a string builds it in iteration order (numeric +=
			// is commutative and therefore order-independent).
			if n.Tok == token.ADD_ASSIGN && isString(info.TypeOf(n.Lhs[0])) {
				out = append(out, diag(pkg, m.Name(), n,
					"string built inside map iteration varies run to run; sort the keys first"))
			}
		case *ast.CallExpr:
			if name, ok := orderedOutputCall(info, n); ok {
				out = append(out, diag(pkg, m.Name(), n,
					"%s inside map iteration emits output in random map order; sort the keys first", name))
			}
		}
		return true
	})
	return out
}

// orderedOutputCall recognizes calls that emit ordered output: the fmt
// printers, io.WriteString, and any function or method named like a
// writer/encoder entry point (Write, WriteString, Encode, ...).
func orderedOutputCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := funcValueOf(info, call.Fun)
	if fn == nil {
		return "", false
	}
	switch name := pkgPath(fn) + "." + fn.Name(); name {
	case "fmt.Print", "fmt.Println", "fmt.Printf", "fmt.Fprint", "fmt.Fprintln", "fmt.Fprintf", "io.WriteString":
		return name, true
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo",
		"Encode", "WriteAll":
		return fn.Name(), true
	}
	return "", false
}
