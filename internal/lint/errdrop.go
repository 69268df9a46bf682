package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// ErrDrop polices error propagation on the paged-data paths.
//
// PR 3's graceful-degradation ladder only works if every error climbs it:
// a corrupt fragment is re-fetched from a lower level, a dead device
// surfaces as a typed sticky error, and the experiment reports a died
// trial instead of silently producing wrong numbers. One discarded error
// return anywhere on the vm → core → swap → disk/netdev → machine path
// breaks the ladder invisibly — the run keeps going with pages whose
// content is no longer trustworthy.
//
// Three shapes are flagged in the scoped packages (type-informed, so only
// results whose type is really `error` count):
//
//   - a call used as a statement whose results include an error — plain,
//     deferred (`defer f.Close()`) or spawned (`go f.flush()`); the defer
//     and go forms hide the call outside any expression statement, which
//     is exactly where cleanup-path errors die;
//   - an assignment that drops an error result into the blank identifier;
//   - an error variable assigned from a call and then overwritten by a
//     sibling statement before anything reads it (the classic copy-paste
//     shadowing bug).
type ErrDrop struct{}

// Name implements Analyzer.
func (ErrDrop) Name() string { return "errdrop" }

// Doc implements Analyzer.
func (ErrDrop) Doc() string {
	return "forbid discarded or shadowed error returns on the paged-data paths (vm/core/swap/disk/netdev/machine)"
}

// errDropScopes are the paged-data packages whose error returns carry the
// degradation ladder.
var errDropScopes = []string{
	"internal/vm", "internal/core", "internal/swap",
	"internal/disk", "internal/netdev", "internal/machine",
}

// Check implements Analyzer.
func (e ErrDrop) Check(pkg *Package) []Diagnostic {
	if !slices.ContainsFunc(errDropScopes, func(s string) bool { return pathHasSuffix(pkg.Path, s) }) {
		return nil
	}
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, fn := range pkg.funcs {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					out = append(out, e.checkDiscardedCall(pkg, info, call, "")...)
				}
			case *ast.DeferStmt:
				out = append(out, e.checkDiscardedCall(pkg, info, n.Call, "deferred ")...)
			case *ast.GoStmt:
				out = append(out, e.checkDiscardedCall(pkg, info, n.Call, "spawned ")...)
			case *ast.AssignStmt:
				out = append(out, e.checkBlank(pkg, info, n)...)
			case *ast.BlockStmt:
				out = append(out, e.checkOverwrites(pkg, info, n)...)
			}
			return true
		})
	}
	return out
}

// checkDiscardedCall flags a statement-position call (plain, deferred or
// spawned) whose results include an error nobody can ever see.
func (e ErrDrop) checkDiscardedCall(pkg *Package, info *types.Info, call *ast.CallExpr, form string) []Diagnostic {
	if errResultIndex(info, call) < 0 || neverFails(info, call) {
		return nil
	}
	return []Diagnostic{diag(pkg, e.Name(), call,
		"%s%s returns an error that is silently discarded; handle it or it never climbs the degradation ladder",
		form, callName(call))}
}

// checkBlank flags `_` receiving an error result.
func (e ErrDrop) checkBlank(pkg *Package, info *types.Info, as *ast.AssignStmt) []Diagnostic {
	var out []Diagnostic
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		var t types.Type
		switch {
		case len(as.Rhs) == len(as.Lhs):
			t = info.TypeOf(as.Rhs[i])
		case len(as.Rhs) == 1:
			// Multi-value call: pick the i-th tuple member.
			if tup, ok := info.TypeOf(as.Rhs[0]).(*types.Tuple); ok && i < tup.Len() {
				t = tup.At(i).Type()
			}
		}
		if t != nil && isErrorType(t) {
			out = append(out, diag(pkg, e.Name(), id,
				"error result assigned to the blank identifier; paged-data errors must be handled, not dropped"))
		}
	}
	return out
}

// checkOverwrites flags an error variable written from a call and then
// written again by a later sibling statement, with no statement in
// between (or the second statement itself) reading it.
func (e ErrDrop) checkOverwrites(pkg *Package, info *types.Info, block *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	// last[obj] remembers the most recent unread error-write in this
	// statement list.
	last := make(map[types.Object]*ast.Ident)
	for _, stmt := range block.List {
		// Which error objects does this statement write at its own level,
		// and which does it mention anywhere in its subtree?
		writes := topLevelErrWrites(info, stmt)
		written := make(map[types.Object]bool, len(writes))
		for _, id := range writes {
			written[objectOf(info, id)] = true
		}
		for obj := range mentionedObjects(info, stmt) {
			if !written[obj] {
				// Read (or nested use) clears the pending write.
				delete(last, obj)
			}
		}
		// Findings are appended in the order the statement writes its
		// targets, never in map order: cclint's output is itself a
		// byte-identical artifact.
		for _, id := range writes {
			obj := objectOf(info, id)
			// Does the overwriting statement also read the variable
			// (err = fmt.Errorf("...: %w", err) wraps, not drops)?
			if w, ok := last[obj]; ok && !readsObject(info, stmt, obj, id) {
				out = append(out, diag(pkg, e.Name(), w,
					"error assigned to %s is overwritten before anything reads it; the first failure is lost", w.Name))
			}
			last[obj] = id
		}
	}
	return out
}

// topLevelErrWrites returns, in source order, the error-typed identifiers a
// statement assigns from a call at its own level (not inside nested
// blocks).
func topLevelErrWrites(info *types.Info, stmt ast.Stmt) []*ast.Ident {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return nil
	}
	hasCall := false
	for _, rhs := range as.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				hasCall = true
			}
			return !hasCall
		})
	}
	if !hasCall {
		return nil
	}
	var writes []*ast.Ident
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := objectOf(info, id).(*types.Var); ok && isErrorType(v.Type()) {
				writes = append(writes, id)
			}
		}
	}
	return writes
}

// mentionedObjects collects every object referenced anywhere in a
// statement's subtree.
func mentionedObjects(info *types.Info, stmt ast.Stmt) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	ast.Inspect(stmt, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				objs[obj] = true
			}
		}
		return true
	})
	return objs
}

// readsObject reports whether stmt references obj anywhere other than the
// writing identifier itself.
func readsObject(info *types.Info, stmt ast.Stmt, obj types.Object, writeSite ast.Node) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ast.Node(id) != writeSite {
			if info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isErrorType reports whether t is exactly the predeclared error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errResultIndex returns the index of the first error in a call's result
// tuple, or -1.
func errResultIndex(info *types.Info, call *ast.CallExpr) int {
	switch t := info.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
		return -1
	default:
		if isErrorType(t) {
			return 0
		}
		return -1
	}
}

// neverFails recognizes the conventional always-nil error sources whose
// discarded error is idiomatic, not a broken ladder: methods on
// strings.Builder / bytes.Buffer and the fmt printers.
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if named, ok := deref(s.Recv()).(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() + "." + obj.Name() {
				case "strings.Builder", "bytes.Buffer":
					return true
				}
			}
		}
		return false
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	return false
}

// callName renders a call target for a message ("m.flush", "Close").
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
