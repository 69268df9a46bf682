package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// CallGraph is the module-wide approximate static call graph.
//
// Nodes are the named functions and methods declared in the module; every
// call site in a body (including calls made inside function literals,
// which are attributed to the enclosing declaration) contributes edges.
// Three kinds of imprecision are accepted, all conservative for the
// analyses built on top:
//
//   - A call through an interface is resolved with type-informed
//     method-set resolution: an edge is added to the interface method
//     itself and to the matching concrete method of every module type
//     that implements the interface. This over-approximates the callees,
//     so nothing an actor body can run stays out of kernelproto's view.
//   - A call through a plain func value is dropped (no edge).
//   - Calls into other modules (the standard library) appear as edges to
//     body-less external nodes, so predicates can still match them by
//     package path and name.
type CallGraph struct {
	mod   *Module
	nodes map[*types.Func]*Node
	// order lists the declared nodes in (package, file, position) order,
	// so every whole-graph pass is deterministic by construction.
	order []*Node
	// impls caches interface-method -> concrete-method resolution.
	impls map[*types.Func][]*types.Func
	// named lists every defined (non-alias) type in the module, in
	// deterministic order, for method-set resolution.
	named []*types.Named
	// orderIdx maps each declared function to its position in order, the
	// tie-break every deterministic traversal uses.
	orderIdx map[*types.Func]int
}

// Node is one function or method in the graph.
type Node struct {
	// Fn identifies the function; for external (out-of-module) callees
	// it is the only field set.
	Fn *types.Func
	// Decl is the declaration, nil for external functions.
	Decl *ast.FuncDecl
	// Pkg is the declaring package, nil for external functions.
	Pkg *Package
	// Out lists the call edges in source order.
	Out []Edge
}

// Edge is one call site.
type Edge struct {
	// Site is the call expression (positions diagnostics).
	Site ast.Node
	// Callee is the resolved target.
	Callee *types.Func
	// Dynamic marks edges recovered by interface method-set resolution.
	Dynamic bool
}

// Node returns the graph node for fn, or nil.
func (g *CallGraph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// buildCallGraph constructs the graph after type-checking.
func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		mod:   mod,
		nodes: make(map[*types.Func]*Node),
		impls: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range mod.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.named = append(g.named, named)
			}
		}
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := mod.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // type checking failed for this decl
				}
				node := &Node{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = node
				g.order = append(g.order, node)
				pkg.funcs = append(pkg.funcs, node)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, e := range g.resolve(call) {
						node.Out = append(node.Out, e)
					}
					return true
				})
			}
		}
	}
	g.orderIdx = make(map[*types.Func]int, len(g.order))
	for i, n := range g.order {
		g.orderIdx[n.Fn] = i
	}
	return g
}

// before orders functions for tie-breaking: declared functions by their
// position in g.order, external functions after them by full name.
func (g *CallGraph) before(a, b *types.Func) bool {
	ia, oka := g.orderIdx[a]
	ib, okb := g.orderIdx[b]
	if oka != okb {
		return oka
	}
	if oka && ia != ib {
		return ia < ib
	}
	return a.FullName() < b.FullName()
}

// resolve maps one call expression to its edges.
func (g *CallGraph) resolve(call *ast.CallExpr) []Edge {
	info := g.mod.Info
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok || sel.Kind() != types.MethodVal {
				return nil
			}
			// The method's own receiver decides, not the selection's: a
			// method promoted through an embedded interface field is
			// selected on a struct and dispatches dynamically all the same.
			if recv := fn.Type().(*types.Signature).Recv().Type(); types.IsInterface(recv) {
				out := []Edge{{Site: call, Callee: fn, Dynamic: true}}
				for _, impl := range g.implementations(recv, fn) {
					out = append(out, Edge{Site: call, Callee: impl, Dynamic: true})
				}
				return out
			}
			return []Edge{{Site: call, Callee: fn}}
		}
	}
	// No selection: a plain or package-qualified call like compress.Compress.
	if fn := funcValueOf(info, call.Fun); fn != nil {
		return []Edge{{Site: call, Callee: fn}}
	}
	return nil
}

// implementations resolves an interface method to the matching concrete
// methods of every module type whose method set satisfies the interface.
func (g *CallGraph) implementations(recv types.Type, m *types.Func) []*types.Func {
	if cached, ok := g.impls[m]; ok {
		return cached
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		g.impls[m] = nil
		return nil
	}
	var out []*types.Func
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		var recvT types.Type
		switch {
		case types.Implements(named, iface):
			recvT = named
		case types.Implements(types.NewPointer(named), iface):
			recvT = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recvT, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if pa, pb := pkgPath(a), pkgPath(b); pa != pb {
			return pa < pb
		}
		return a.FullName() < b.FullName()
	})
	g.impls[m] = out
	return out
}

// Walk is the module's one forward traversal: breadth-first from seeds,
// level-synchronized, each level's frontier visited in declaration order
// (g.before) and each function's edges in source order, so the link
// recorded for a function is the same on every run regardless of how the
// graph was assembled. An edge to a function not reached yet is taken when
// follow accepts it; callees without a body are recorded but never
// expanded. The result maps every function reached to the one it was first
// reached from (a seed maps to nil); chainTo turns it into call chains.
// seeds is sorted in place.
func (g *CallGraph) Walk(seeds []*types.Func, follow func(from *Node, e Edge) bool) map[*types.Func]*types.Func {
	prev := make(map[*types.Func]*types.Func, len(seeds))
	for _, fn := range seeds {
		prev[fn] = nil
	}
	for frontier := seeds; len(frontier) > 0; {
		sort.Slice(frontier, func(i, j int) bool { return g.before(frontier[i], frontier[j]) })
		var next []*types.Func
		for _, fn := range frontier {
			node := g.nodes[fn]
			if node == nil {
				continue
			}
			for _, e := range node.Out {
				if _, seen := prev[e.Callee]; seen || !follow(node, e) {
					continue
				}
				prev[e.Callee] = fn
				next = append(next, e.Callee)
			}
		}
		frontier = next
	}
	return prev
}

// chainTo rebuilds the chain [seed, ..., fn] from Walk's links.
func chainTo(prev map[*types.Func]*types.Func, fn *types.Func) []*types.Func {
	var chain []*types.Func
	for f := fn; f != nil; f = prev[f] {
		chain = append(chain, f)
	}
	slices.Reverse(chain)
	return chain
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

// chainString renders a call chain for a diagnostic message, e.g.
// "Flush → lfs.Append → compress.Compress".
func chainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, fn := range chain {
		name := fn.Name()
		if i > 0 {
			if p := fn.Pkg(); p != nil {
				name = p.Name() + "." + name
			}
		}
		parts[i] = name
	}
	return strings.Join(parts, " → ")
}
