package lint

import "go/ast"

// MapRange makes map order something the code cannot reach. Go randomises
// map iteration per loop, so anything a map range appends, prints, sums in
// floats or hands to a free list differs from run to run, which breaks the
// byte-identical-at-any-j guarantee. Following that order to each place it
// could leak is an analysis with false negatives; never iterating in it is
// a property of the source. So in non-test code two shapes are findings:
//
//   - a range over anything the type checker calls a map (a named map
//     type, a field declared in another package and a call's result
//     included, inside a closure or not);
//   - maps.Keys, maps.Values or maps.All anywhere but as the direct
//     argument of slices.Sorted, slices.SortedFunc or
//     slices.SortedStableFunc, called or handed around as a value.
//
// Code that needs a map's entries ranges over
// slices.Sorted(maps.Keys(m)), or walks an ordered structure it already
// keeps beside the map. Indexing, deleting, maps.Clone and maps.Copy never
// observe the order and are never findings.
type MapRange struct{}

// Name implements Analyzer.
func (MapRange) Name() string { return "maprange" }

// Doc implements Analyzer.
func (MapRange) Doc() string {
	return "no iteration in map order: range over slices.Sorted(maps.Keys(m)) instead of a map, and pass maps.Keys/Values/All only to slices.Sorted*"
}

// sortedSeqs are the functions that turn an iterator in map order into a
// sorted slice.
var sortedSeqs = map[string]bool{"Sorted": true, "SortedFunc": true, "SortedStableFunc": true}

// mapSeqs are the iterators over a map, in map order.
var mapSeqs = map[string]bool{"Keys": true, "Values": true, "All": true}

// Check implements Analyzer.
func (m MapRange) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, f := range pkg.Files {
		// A call is visited before its arguments, so a sorted argument's
		// function is marked before it is reached.
		sorted := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMap(info.TypeOf(n.X)) {
					out = append(out, diag(pkg, m.Name(), n,
						"range over a map visits it in random order; range over slices.Sorted(maps.Keys(m)) or an ordered structure"))
				}
			case *ast.CallExpr:
				if fn := funcValueOf(info, n.Fun); fn != nil && pkgPath(fn) == "slices" && sortedSeqs[fn.Name()] && len(n.Args) > 0 {
					if arg, ok := ast.Unparen(n.Args[0]).(*ast.CallExpr); ok {
						sorted[ast.Unparen(arg.Fun)] = true
					}
				}
			case *ast.Ident, *ast.SelectorExpr:
				fn := funcValueOf(info, n.(ast.Expr))
				if fn == nil || pkgPath(fn) != "maps" || !mapSeqs[fn.Name()] {
					return true
				}
				if !sorted[n.(ast.Expr)] {
					out = append(out, diag(pkg, m.Name(), n,
						"maps.%s yields in random map order; pass it straight to slices.Sorted or slices.SortedFunc", fn.Name()))
				}
				return false // the selector's own identifiers name the same function
			}
			return true
		})
	}
	return out
}
