package lint

// kernelproto: code reachable from a kernel-attached actor body must stay
// on the sim.Kernel baton. The discrete-event kernel's fleet contract —
// byte-identical at any GOMAXPROCS — rests on a single-actor discipline:
// exactly one actor body runs at a time, handed the baton by the kernel's
// own channel choreography. An actor body that spawns a raw goroutine,
// touches a channel directly, or takes a mutex/atomic reintroduces the
// host scheduler as a hidden input, and the fleet's determinism is gone
// in exactly the way -race cannot reliably catch.
//
// The analyzer first computes the set of "armers" — functions whose
// func-typed parameter runs as an actor body. The seeds are the kernel's
// own spawn primitives (Kernel.Go, Kernel.Bind, Kernel.Schedule in an
// internal/sim package); the fixed point then absorbs wrappers like
// cluster.Go(i, fn), which forwards its fn into Kernel.Go inside a
// closure — a plain func-value call the call graph itself drops, so the
// wrapper propagation is what makes the check hold on real fleet code.
//
// From every armed function literal and named function, the call graph's
// forward walk (CallGraph.Walk: deterministic, chain-recording) visits
// everything an actor body can execute, and every
// violation — go statement, channel send/receive/select/close, ranging
// over a channel, sync.Mutex/RWMutex/WaitGroup/Cond/Once methods,
// sync/atomic operations — is reported with the actor→violation chain.
//
// Exemptions: packages matching internal/sim are never scanned or
// traversed into (the kernel IS the baton implementation), and sync.Pool
// is allowed (the pooled-scratch idiom is deterministic: Get/Put never
// block and the codecs' recyclers rely on it).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// KernelProto reports scheduler-visible primitives reachable from kernel
// actor bodies.
type KernelProto struct{}

// Name implements Analyzer.
func (KernelProto) Name() string { return "kernelproto" }

// Doc implements Analyzer.
func (KernelProto) Doc() string {
	return "kernel actor bodies must not spawn goroutines, touch channels, or take locks outside the sim.Kernel baton"
}

// kernelArmerSeeds maps the sim.Kernel spawn primitives to the argument
// index of the func that becomes an actor body.
var kernelArmerSeeds = map[string]int{"Go": 1, "Bind": 1, "Schedule": 2}

// kpViolation is one violation with its actor→violation chain, resolved
// module-wide and then reported in the owning package.
type kpViolation struct {
	pkg   *Package
	node  ast.Node
	what  string
	chain []*types.Func
	root  string // name of the function whose body arms the actor
}

// kprotoFacts is the memoized module-wide result.
type kprotoFacts struct {
	viols []kpViolation
}

// kernelProto returns the module's kernel-protocol facts, computing them
// on first use.
func (m *Module) kernelProto() *kprotoFacts {
	if m.kproto == nil {
		m.kproto = computeKernelProto(m)
	}
	return m.kproto
}

// Check implements Analyzer.
func (kp KernelProto) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, v := range pkg.Mod.kernelProto().viols {
		if v.pkg != pkg {
			continue
		}
		out = append(out, diag(pkg, kp.Name(), v.node,
			"actor body armed in %s: %s outside the kernel baton (%s); fleet determinism needs the single-actor discipline",
			v.root, v.what, chainString(v.chain)))
	}
	return out
}

// computeKernelProto runs the armer fixed point, collects the actor
// roots, and scans everything reachable from them.
func computeKernelProto(mod *Module) *kprotoFacts {
	g := mod.Graph
	armed := computeArmers(mod)

	// Roots: at every call site of an armer, the armed argument is either
	// a function literal (scanned in place, its outgoing edges followed)
	// or a named module function (a walk seed). Func-typed parameters were
	// already absorbed by the armer fixed point.
	type litRoot struct {
		node *Node
		lit  *ast.FuncLit
	}
	// seed is what the walk cannot know about where it started: the
	// function whose body armed the actor, which also heads every chain
	// when the actor is a literal in that body and the seed a callee of it.
	type seed struct {
		armedIn *types.Func
		viaLit  bool
	}
	var litRoots []litRoot
	var seeds []*types.Func
	seedOf := make(map[*types.Func]seed)
	inScope := func(fn *types.Func) bool { return g.Node(fn) != nil && !inSimPkg(fn) }
	addSeed := func(fn *types.Func, sd seed) {
		if _, ok := seedOf[fn]; !ok && inScope(fn) {
			seedOf[fn] = sd
			seeds = append(seeds, fn)
		}
	}
	for _, n := range g.order {
		if simPath(n.Pkg.Path) {
			continue // the kernel arms its own machinery
		}
		for _, e := range n.Out {
			idx, ok := armerIndex(e.Callee, armed)
			if !ok {
				continue
			}
			call, okCall := e.Site.(*ast.CallExpr)
			if !okCall || idx >= len(call.Args) {
				continue
			}
			if lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit); ok {
				litRoots = append(litRoots, litRoot{node: n, lit: lit})
			} else if fn := funcValueOf(mod.Info, call.Args[idx]); fn != nil {
				addSeed(fn, seed{armedIn: n.Fn})
			}
		}
	}
	// Literal roots: scan the literal body directly and seed the walk with
	// the calls made inside the literal's span.
	facts := &kprotoFacts{}
	for _, lr := range litRoots {
		for _, v := range scanKernelViolations(mod, lr.lit.Body) {
			facts.viols = append(facts.viols, kpViolation{
				pkg: lr.node.Pkg, node: v.node, what: v.what,
				chain: []*types.Func{lr.node.Fn}, root: lr.node.Fn.Name(),
			})
		}
		for _, e := range lr.node.Out {
			if e.Site.Pos() >= lr.lit.Pos() && e.Site.End() <= lr.lit.End() {
				addSeed(e.Callee, seed{armedIn: lr.node.Fn, viaLit: true})
			}
		}
	}
	prev := g.Walk(seeds, func(_ *Node, e Edge) bool { return inScope(e.Callee) })

	// Scan every reached function body, in declaration order.
	for _, n := range g.order {
		if _, reached := prev[n.Fn]; !reached {
			continue
		}
		chain := chainTo(prev, n.Fn)
		sd := seedOf[chain[0]]
		if sd.viaLit {
			chain = append([]*types.Func{sd.armedIn}, chain...)
		}
		for _, v := range scanKernelViolations(mod, n.Decl.Body) {
			facts.viols = append(facts.viols, kpViolation{
				pkg: n.Pkg, node: v.node, what: v.what,
				chain: chain, root: sd.armedIn.Name(),
			})
		}
	}
	return facts
}

// computeArmers finds every (function, param index) whose func argument
// runs as an actor body: the sim.Kernel seeds plus the wrapper fixed
// point (a function that forwards its own func-typed parameter into an
// armed position — directly, or from inside a function literal passed at
// the armed position — is itself an armer).
func computeArmers(mod *Module) map[*types.Func]int {
	g := mod.Graph
	armed := make(map[*types.Func]int)
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			if _, ok := armed[n.Fn]; ok {
				continue
			}
			params := funcParamsOf(n.Fn)
			if len(params) == 0 {
				continue
			}
			for _, e := range n.Out {
				idx, ok := armerIndex(e.Callee, armed)
				if !ok {
					continue
				}
				call, okCall := e.Site.(*ast.CallExpr)
				if !okCall || idx >= len(call.Args) {
					continue
				}
				arg := ast.Unparen(call.Args[idx])
				var pi int = -1
				switch a := arg.(type) {
				case *ast.Ident:
					if i, ok := params[mod.Info.Uses[a]]; ok {
						pi = i
					}
				case *ast.FuncLit:
					pi = litCallsParam(mod, a, params)
				}
				if pi >= 0 {
					armed[n.Fn] = pi
					changed = true
					break
				}
			}
		}
	}
	return armed
}

// armerIndex resolves the armed argument index of a callee: the kernel
// seeds, or a fixed-point wrapper.
func armerIndex(fn *types.Func, armed map[*types.Func]int) (int, bool) {
	if fn == nil {
		return 0, false
	}
	if pathHasSuffix(pkgPath(fn), "internal/sim") {
		if idx, ok := kernelArmerSeeds[fn.Name()]; ok {
			return idx, true
		}
		return 0, false
	}
	idx, ok := armed[fn]
	return idx, ok
}

// funcParamsOf maps a function's func-typed parameters to their indices.
func funcParamsOf(fn *types.Func) map[types.Object]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out map[types.Object]int
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, isFunc := p.Type().Underlying().(*types.Signature); isFunc {
			if out == nil {
				out = make(map[types.Object]int)
			}
			out[p] = i
		}
	}
	return out
}

// litCallsParam reports which func-typed parameter (if any) a literal's
// body invokes — the cluster.Go shape, where the armed closure calls the
// wrapper's fn argument.
func litCallsParam(mod *Module, lit *ast.FuncLit, params map[types.Object]int) int {
	found := -1
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found >= 0 {
			return found < 0
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if i, ok := params[mod.Info.Uses[id]]; ok {
				found = i
			}
		}
		return true
	})
	return found
}

func simPath(path string) bool { return pathHasSuffix(path, "internal/sim") }

func inSimPkg(fn *types.Func) bool { return simPath(pkgPath(fn)) }

// kpSite is one violation inside a body.
type kpSite struct {
	node ast.Node
	what string
}

// forbiddenSyncTypes are the sync primitives an actor body must not take;
// sync.Pool is deliberately absent (pooled scratch never blocks).
var forbiddenSyncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true, "Once": true,
}

// scanKernelViolations scans one body (or literal body) for
// scheduler-visible primitives.
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
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					out = append(out, kpSite{n, "ranges over a channel"})
				}
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
// methods, and sync/atomic operations.
func kernelViolationCall(info *types.Info, call *ast.CallExpr) string {
	if builtinCall(info, call) == "close" {
		return "closes a channel"
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if named, ok := deref(s.Recv()).(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sync":
					if forbiddenSyncTypes[obj.Name()] {
						return fmt.Sprintf("takes sync.%s.%s", obj.Name(), sel.Sel.Name)
					}
				case "sync/atomic":
					return fmt.Sprintf("performs atomic %s.%s", obj.Name(), sel.Sel.Name)
				}
			}
		}
		return ""
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && pkgPath(fn) == "sync/atomic" {
		return "performs atomic " + fn.Name()
	}
	return ""
}
