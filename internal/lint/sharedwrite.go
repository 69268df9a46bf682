package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite enforces the parallel runner's determinism contract at the
// source level: results produced by concurrent goroutines are either
// index-slotted into a pre-sized slice (results[i] = r — each goroutine
// owns its slot, merge order is the index order) or handed over a
// channel. Any other write to a variable captured from the enclosing
// scope — a plain scalar, a struct field, a map entry, a dereferenced
// pointer — is scheduler-ordered: the outcome depends on goroutine
// interleaving, which is exactly the shape that silently breaks the
// byte-identical -j1 ≡ -jN guarantee (and usually the race detector's
// patience too).
//
// The analysis is type-informed: a captured variable is one whose
// declaration lies outside the `go` closure (including package level);
// index expressions are split by the indexed type, slices/arrays being
// slot writes and maps being unordered shared state.
type SharedWrite struct{}

// Name implements Analyzer.
func (SharedWrite) Name() string { return "sharedwrite" }

// Doc implements Analyzer.
func (SharedWrite) Doc() string {
	return "goroutine closures may write captured state only via index-slotted slices or channels (the -j1 ≡ -jN contract)"
}

// Check implements Analyzer.
func (s SharedWrite) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			out = append(out, s.checkClosure(pkg, info, lit)...)
			return true
		})
	}
	return out
}

// checkClosure walks one go-closure body (nested function literals
// included — they run on the same goroutine) and flags writes to
// captured variables that are not index-slotted.
func (s SharedWrite) checkClosure(pkg *Package, info *types.Info, lit *ast.FuncLit) []Diagnostic {
	captured := func(id *ast.Ident) (types.Object, bool) {
		obj := info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok {
			return nil, false
		}
		// Declared outside the closure's span = captured (parameters of
		// the closure and locals fall inside).
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return nil, false
		}
		return obj, true
	}

	var out []Diagnostic
	flagLHS := func(lhs ast.Expr, verb string) {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			if obj, ok := captured(lhs); ok {
				out = append(out, diag(pkg, s.Name(), lhs,
					"goroutine %s captured variable %s; concurrent writes are scheduler-ordered — use an index-slotted slice or a channel", verb, obj.Name()))
			}
		case *ast.SelectorExpr:
			if root := rootIdent(lhs.X); root != nil {
				if obj, ok := captured(root); ok {
					out = append(out, diag(pkg, s.Name(), lhs,
						"goroutine %s field %s of captured %s; concurrent writes are scheduler-ordered — use an index-slotted slice or a channel", verb, lhs.Sel.Name, obj.Name()))
				}
			}
		case *ast.IndexExpr:
			t := info.TypeOf(lhs.X)
			if t == nil {
				return
			}
			switch deref(t.Underlying()).Underlying().(type) {
			case *types.Map:
				if root := rootIdent(lhs.X); root != nil {
					if obj, ok := captured(root); ok {
						out = append(out, diag(pkg, s.Name(), lhs,
							"goroutine %s captured map %s; map writes are unordered shared state — index-slot a slice or use a channel", verb, obj.Name()))
					}
				}
			default:
				// Slice/array element write: the index-slotted pattern.
				// This is the contract's sanctioned shape; nothing to do.
			}
		case *ast.StarExpr:
			if root := rootIdent(lhs.X); root != nil {
				if obj, ok := captured(root); ok {
					out = append(out, diag(pkg, s.Name(), lhs,
						"goroutine %s through captured pointer %s; concurrent writes are scheduler-ordered — use an index-slotted slice or a channel", verb, obj.Name()))
				}
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // := declares inside the closure
			}
			for _, lhs := range n.Lhs {
				flagLHS(lhs, "writes")
			}
		case *ast.IncDecStmt:
			flagLHS(n.X, "increments")
		}
		return true
	})
	return out
}
