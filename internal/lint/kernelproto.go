package lint

// kernelproto: goroutines, channels and locks live in internal/runner and
// nowhere else. The byte-identical contract rests on a single-actor
// discipline: exactly one simulated activity runs at a time, resumed by
// sim.Kernel as a coroutine and handing the baton back when it waits.
// Simulator code that spawns a goroutine, touches a channel or takes a
// mutex/atomic makes the host scheduler a hidden input, in exactly the way
// -race cannot reliably catch.
//
// The rule is the package boundary. internal/runner is the host fan-out that
// builds whole machines on worker goroutines, above every kernel, and is
// exempt by package. The kernel itself is not: its actors are iter.Pull
// coroutines, so internal/sim needs no goroutine, channel or lock and is
// scanned like everything else. Every file of
// every other package is scanned, and each primitive in it is a finding
// whether or not anything is known to call it. That is stronger than
// reachability from an actor body, which a static call graph only
// approximates: a primitive inside a closure stored in a hook and invoked
// through a func value is on every fault path and on no call-graph edge.
//
// sync.Pool is allowed (pooled scratch never blocks, and the codecs'
// recyclers rely on it). A package-level lock that is real synchronisation
// and has to stay is a row of realLocks, with its reason; a method called on
// it is not a finding, and any other lock in its package still is.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// KernelProto reports scheduler-visible primitives outside the packages that
// own the host scheduler.
type KernelProto struct{}

// Name implements Analyzer.
func (KernelProto) Name() string { return "kernelproto" }

// Doc implements Analyzer.
func (KernelProto) Doc() string {
	return "goroutines, channels, locks and atomics live in internal/runner and nowhere else"
}

// schedulerOwners are the packages allowed to touch the host scheduler.
var schedulerOwners = []string{"internal/runner"}

// realLock names one package-level lock outside the scheduler owners that
// stays, and why taking it orders no simulated result.
type realLock struct{ pkg, name, why string }

// realLocks is the whole list of locks kernelproto lets stand.
var realLocks = []realLock{
	{"internal/compress", "regMu", "runner workers Lookup codecs while start-up code Registers one; " +
		"which of them gets the lock first changes no simulated result"},
}

// Check implements Analyzer.
func (kp KernelProto) Check(pkg *Package) []Diagnostic {
	if slices.ContainsFunc(schedulerOwners, func(s string) bool { return pathHasSuffix(pkg.Path, s) }) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, v := range scanKernelViolations(pkg.Mod, f) {
			out = append(out, diag(pkg, kp.Name(), v.node,
				"%s outside internal/runner; only the runner fan-out may touch the host scheduler", v.what))
		}
	}
	return out
}

// kpSite is one violation inside a body.
type kpSite struct {
	node ast.Node
	what string
}

// forbiddenSyncTypes are the sync primitives simulator code must not take;
// sync.Pool is deliberately absent (pooled scratch never blocks).
var forbiddenSyncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true, "Once": true,
}

// scanKernelViolations scans one file (or any node) for scheduler-visible
// primitives.
func scanKernelViolations(mod *Module, body ast.Node) []kpSite {
	info := mod.Info
	var out []kpSite
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			out = append(out, kpSite{n, "spawns a raw goroutine"})
		case *ast.SendStmt:
			out = append(out, kpSite{n, "sends on a channel"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				out = append(out, kpSite{n, "receives from a channel"})
			}
		case *ast.SelectStmt:
			out = append(out, kpSite{n, "selects on channels"})
		case *ast.RangeStmt:
			if _, isChan := info.TypeOf(n.X).Underlying().(*types.Chan); isChan {
				out = append(out, kpSite{n, "ranges over a channel"})
			}
		case *ast.CallExpr:
			if s := kernelViolationCall(info, n); s != "" {
				out = append(out, kpSite{n, s})
			}
		}
		return true
	})
	return out
}

// kernelViolationCall classifies a call: close(ch), sync primitive
// methods, and sync/atomic operations. A method counts by its own receiver,
// so a lock promoted through an embedded sync.Mutex is still the lock.
func kernelViolationCall(info *types.Info, call *ast.CallExpr) string {
	if builtinCall(info, call) == "close" {
		return "closes a channel"
	}
	fn := funcValueOf(info, call.Fun)
	if fn == nil {
		return ""
	}
	typ, name := "", fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := deref(recv.Type()).(*types.Named); ok {
			typ = named.Obj().Name()
			name = typ + "." + name
		}
	}
	switch pkgPath(fn) {
	case "sync/atomic":
		return "performs atomic " + name
	case "sync":
		if forbiddenSyncTypes[typ] && !onRealLock(info, call) {
			return "takes sync." + name
		}
	}
	return ""
}

// onRealLock reports whether call is a method called directly on a
// package-level variable that realLocks names.
func onRealLock(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	return slices.ContainsFunc(realLocks, func(l realLock) bool {
		return l.name == v.Name() && pathHasSuffix(v.Pkg().Path(), l.pkg)
	})
}
