package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// MapRange flags `range` over a map whose body produces ordered output:
// appending to a slice, writing through fmt, building a string, or summing
// floats into a variable declared outside the body. Go randomizes map
// iteration order per iteration, so any ordered artifact built this way
// differs from run to run — the exact shape that would break the
// byte-identical-at-any-j guarantee. Float addition is not associative:
// the same numbers summed in another order can differ in the last bits,
// and the stats and exp layers print such sums.
//
// The canonical deterministic patterns stay silent:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }   // ok: keys sorted below
//	sort.Strings(keys)
//
// and order-independent work (counting, integer sums, writing into another
// map, deleting entries, a float sum local to the body) is never flagged.
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
	return "flag map iteration that feeds ordered output (append/print/string build/float sum) without sorting"
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
			if floatSum(info, n, rs.Body) {
				out = append(out, diag(pkg, m.Name(), n,
					"float accumulation inside map iteration; map order is random per run — sort the keys first"))
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

// floatSum reports whether as accumulates a float into a variable, or a
// field of one, declared outside body: x += v (or -=, *=, /=), or x = x + v
// spelled out. An accumulator declared inside the body resets every
// iteration and carries no order out of the loop.
func floatSum(info *types.Info, as *ast.AssignStmt, body *ast.BlockStmt) bool {
	if len(as.Lhs) != 1 {
		return false
	}
	lhs := ast.Unparen(as.Lhs[0])
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return false
	}
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || (v.Pos() >= body.Pos() && v.Pos() < body.End()) {
		return false
	}
	if b, ok := info.TypeOf(lhs).Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL && bin.Op != token.QUO) {
			return false
		}
		mentions := false
		ast.Inspect(bin, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
				mentions = true
			}
			return !mentions
		})
		return mentions
	}
	return false
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
