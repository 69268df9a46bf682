package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The typed fact helpers every analyzer and per-function scanner shares.
// They answer from the module's one types.Info what spelling can only
// guess: which object an identifier is, which function an expression
// names, whether a value is a map. The module type-checked without error
// (LoadTree refuses it otherwise), so every expression has a type.

// objectOf resolves an identifier to the object it uses or defines.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if u := info.Uses[id]; u != nil {
		return u
	}
	return info.Defs[id]
}

// funcValueOf resolves an expression naming a function — f, pkg.f under
// whatever name the file imports pkg, a dot-imported f, or a method value
// x.m — to that function, whether the expression is called or handed
// around as a value. Anything else (a func-typed variable, a literal) is
// nil.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgPath returns a function's package path, "" for builtins.
func pkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// pathHasSuffix reports whether an import path is, or ends with, the
// given slash-separated suffix ("internal/sim" matches both
// "compcache/internal/sim" and a fixture's "compcache/x/internal/sim").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// builtinCall returns the name of the builtin a call invokes ("append",
// "make", "panic", ...), or "" when it calls anything else — including a
// user function that shadows a builtin's name.
func builtinCall(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isString reports whether t is a string type.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isMap reports whether t is a map type.
func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent returns the leftmost identifier of an expression chain
// (x, x.y, x[i], *x, &x, (x) ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}
