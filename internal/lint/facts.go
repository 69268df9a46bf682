package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The typed fact helpers the analyzers share. They answer from the
// module's one types.Info what spelling can only guess: which function an
// expression names, which builtin a call invokes, whether a value is a map.
// The module type-checked without error (LoadTree refuses it otherwise), so
// every expression has a type.

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

// isMap reports whether t is a map type.
func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}
