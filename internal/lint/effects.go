package lint

// Allocation-site and parameter-flow scan: one pass over every declared
// function body, the static half of the zero-allocation hot-path contract
// that internal/machine's AllocsPerRun tests enforce dynamically. hotalloc
// reads the sites of the functions on a hot chain (HotChains); bufown reads
// the parameter flows and cap-reslices of the contract functions.
//
// Every site gets one of three classes:
//
//   - steady: may allocate on every execution in steady state — composite
//     literals that escape, make/new into locals, appends to fresh slices,
//     string↔[]byte conversions, interface boxing at call sites, escaping
//     closures, and calls into the small set of standard-library
//     functions known to allocate (fmt, errors.New/Join, sort.Slice).
//   - warm: allocates only through recognized warm-up/amortized idioms —
//     growing a pooled buffer held in a struct field (compBuf/nbrBuf/
//     readBuf and friends), appending to caller- or field-owned backing
//     storage, map writes, sync.Pool refills, and the cache's
//     slab/entry/frame recyclers. These settle to zero allocations once
//     capacities are reached, which is exactly what AllocsPerRun measures
//     after warm-up.
//   - cold: on an error or panic path. The dynamic contract never
//     exercises those, and wrapping an error is allowed to cost an
//     allocation, so cold sites are not reported and hot-path reachability
//     skips cold call edges.
//
// A flow is parameter-derived slice/pointer memory stored into a receiver
// field, package state or a map, or returned to the caller.
//
// Soundness caveats (documented in DESIGN.md): the known-allocating
// external table is curated, not derived, so an allocating stdlib call
// outside it is missed; taint laundering at call boundaries means a
// callee that retains its own argument is not propagated to the caller;
// and closure escape analysis is syntactic (a literal only assigned to a
// local and called in place is assumed non-escaping).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SiteClass classifies one allocation site.
type SiteClass int

const (
	// SiteSteady allocates on the steady-state path.
	SiteSteady SiteClass = iota
	// SiteWarm allocates only while a pooled buffer grows to its working
	// capacity (or another amortized idiom).
	SiteWarm
	// SiteCold allocates only on an error or panic path.
	SiteCold
)

// AllocSite is one potential allocation in a function body.
type AllocSite struct {
	// Node positions the site.
	Node ast.Node
	// Class is the steady/warm/cold classification.
	Class SiteClass
	// What describes the allocation for the diagnostic.
	What string
}

// ParamFlow records parameter-derived memory leaving a function: stored
// into longer-lived state (Store) or returned to the caller.
type ParamFlow struct {
	// Node is the assignment or return statement.
	Node ast.Node
	// Param is the parameter the value derives from.
	Param *types.Var
	// Store is true for a store into a field/global/map, false for a
	// return.
	Store bool
}

// CapReslice records a reslice of a parameter beyond its length
// (p[:cap(p)]), which reads memory the caller never handed over.
type CapReslice struct {
	Node  ast.Node
	Param *types.Var
}

// FnEffects is what the scan found in one declared function's body.
type FnEffects struct {
	// Fn identifies the function.
	Fn *types.Func
	// Sites lists the body's allocation sites.
	Sites []AllocSite
	// ColdSites marks call expressions that execute only on error/panic
	// paths; hot-path reachability skips edges whose site is cold.
	ColdSites map[ast.Node]bool
	// Flows lists parameter-derived stores and returns (bufown's input).
	Flows []ParamFlow
	// CapReslices lists reads beyond a parameter's length.
	CapReslices []CapReslice
}

// EffectFacts is the module-wide scan table, computed once per load.
type EffectFacts struct {
	mod *Module
	fns map[*types.Func]*FnEffects

	hot map[*types.Func][]*types.Func // hot-path chains, computed lazily
}

// Effects returns the module's scan table, scanning every declared
// function on first use.
func (m *Module) Effects() *EffectFacts {
	if m.effects == nil {
		m.effects = &EffectFacts{mod: m, fns: make(map[*types.Func]*FnEffects)}
		for _, node := range m.Graph.order {
			m.effects.fns[node.Fn] = scanFn(m, node)
		}
	}
	return m.effects
}

// Of returns the scan of fn, or nil for external functions.
func (f *EffectFacts) Of(fn *types.Func) *FnEffects { return f.fns[fn] }

// pooledAllocFns are module functions whose whole purpose is recycling:
// their internal make/new fallbacks run only until the freelist warms up,
// so every steady site in them is demoted to warm.
var pooledAllocFns = map[string]map[string]bool{
	"internal/cluster": {"newEntry": true, "newTier": true},
	"internal/core":    {"slabGet": true, "newEntry": true, "newFrame": true},
	"internal/policy":  {"scratch": true},
	"internal/swap":    {"newSegment": true},
}

// knownAllocExternals flags standard-library callees that always (or
// almost always) allocate. The table is curated, not derived — an
// allocating stdlib function outside it is a known soundness gap.
func knownAllocExternal(fn *types.Func) bool {
	switch pkgPath(fn) {
	case "fmt":
		return true
	case "errors":
		return fn.Name() == "New" || fn.Name() == "Join"
	case "sort":
		return fn.Name() == "Slice" || fn.Name() == "SliceStable"
	}
	return false
}

// warmExternal flags external callees that allocate only to refill a pool.
func warmExternal(fn *types.Func) bool {
	return fn.Name() == "Get" && pkgPath(fn) == "sync"
}

// originKind says where a value's backing memory comes from.
type originKind int

const (
	oFresh  originKind = iota // allocated here or laundered through a call
	oParam                    // derived from a parameter
	oField                    // derived from a struct field
	oGlobal                   // derived from package state
)

type origin struct {
	kind  originKind
	param *types.Var // set for oParam
}

// fnScanner walks one function body collecting sites, flows and cold
// spans.
type fnScanner struct {
	mod       *Module
	node      *Node
	fe        *FnEffects
	origins   map[types.Object]origin
	fieldRHS  map[ast.Expr]bool // RHS exprs assigned to a field/global LHS
	coldRoots []ast.Node
	handled   map[ast.Node]bool // composite lits consumed by a parent &T{}
	pooled    bool
}

func scanFn(mod *Module, node *Node) *FnEffects {
	fe := &FnEffects{Fn: node.Fn, ColdSites: make(map[ast.Node]bool)}
	s := &fnScanner{
		mod:      mod,
		node:     node,
		fe:       fe,
		origins:  make(map[types.Object]origin),
		fieldRHS: make(map[ast.Expr]bool),
		handled:  make(map[ast.Node]bool),
	}
	for name, fns := range pooledAllocFns {
		if fnIn(node.Fn, name, fns) {
			s.pooled = true
		}
	}
	sig := node.Fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		s.origins[p] = origin{kind: oParam, param: p}
	}
	s.contextPass(node.Decl.Body)
	s.sitePass(node.Decl.Body)
	return fe
}

// contextPass records assignment contexts (field-destined RHS, local
// variable origins) and cold roots before the site pass classifies
// anything. ast.Inspect visits in source order, so the forward origin
// pass sees definitions before uses for straight-line idioms like
// `batch := c.cleanBatch[:0]`.
func (s *fnScanner) contextPass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if s.isPersistentLHS(n.Lhs[i]) {
						s.fieldRHS[n.Rhs[i]] = true
					}
					if obj := localVar(s.mod.Info, n.Lhs[i]); obj != nil {
						s.setOrigin(obj, s.originOf(n.Rhs[i]))
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					if obj := s.mod.Info.Defs[name]; obj != nil {
						s.setOrigin(obj, s.originOf(n.Values[i]))
					}
				}
			}
		case *ast.RangeStmt:
			// `for _, x := range p`: the element derives from the ranged
			// value (a slice element aliases its backing array).
			if obj := localVar(s.mod.Info, n.Value); obj != nil {
				s.setOrigin(obj, s.originOf(n.X))
			}
		case *ast.ReturnStmt:
			if s.isColdReturn(n) {
				s.coldRoots = append(s.coldRoots, n)
			}
		case *ast.CallExpr:
			if builtinCall(s.mod.Info, n) == "panic" {
				s.coldRoots = append(s.coldRoots, n)
			}
		}
		return true
	})
}

// isColdReturn reports whether a return statement is an error exit: the
// function's last result is error and the returned error is constructed
// in place (&T{…}, T{…}, or fmt.Errorf/errors.New/errors.Join). Returning
// a plain identifier or a module-internal call is NOT cold — tail calls
// like `return c.WriteCluster(batch, false)` stay on the hot path.
func (s *fnScanner) isColdReturn(ret *ast.ReturnStmt) bool {
	sig := s.node.Fn.Type().(*types.Signature)
	nres := sig.Results().Len()
	if nres == 0 || len(ret.Results) == 0 {
		return false
	}
	if !isErrorType(sig.Results().At(nres - 1).Type()) {
		return false
	}
	switch last := ast.Unparen(ret.Results[len(ret.Results)-1]).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if last.Op == token.AND {
			_, ok := last.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		for _, e := range s.node.EdgesAt(last) {
			if knownAllocExternal(e.Callee) {
				return true
			}
		}
	}
	return false
}

// isCold reports whether a node lies inside a cold root's span.
func (s *fnScanner) isCold(n ast.Node) bool {
	for _, r := range s.coldRoots {
		if n.Pos() >= r.Pos() && n.End() <= r.End() {
			return true
		}
	}
	return false
}

// isPersistentLHS reports whether an assignment target outlives the call:
// a field selector, a package-level variable, or a map/index element of
// either.
func (s *fnScanner) isPersistentLHS(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := s.mod.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		if v, ok := s.mod.Info.Uses[e.Sel].(*types.Var); ok {
			return isGlobal(v)
		}
	case *ast.Ident:
		if v, ok := s.mod.Info.Uses[e].(*types.Var); ok {
			return isGlobal(v)
		}
	case *ast.IndexExpr:
		return s.isPersistentLHS(e.X)
	case *ast.StarExpr:
		return s.isPersistentLHS(e.X)
	}
	return false
}

// setOrigin joins a new binding into a variable's origin. The pass is
// flow-insensitive: a local that EVER derives from a parameter, field or
// global keeps that origin, because idioms like `dst = encodeLine(dst, …)`
// or `neighbors = nil` would otherwise launder a pooled destination into
// fresh memory mid-function. Derived origins dominate fresh; parameters
// dominate fields dominate globals (first binding wins among equals).
func (s *fnScanner) setOrigin(obj types.Object, o origin) {
	old, ok := s.origins[obj]
	if !ok {
		s.origins[obj] = o
		return
	}
	rank := func(k originKind) int {
		switch k {
		case oParam:
			return 3
		case oField:
			return 2
		case oGlobal:
			return 1
		}
		return 0
	}
	if rank(o.kind) > rank(old.kind) {
		s.origins[obj] = o
	}
}

// originOf resolves where an expression's backing memory comes from.
// Calls and conversions launder (a callee's result is fresh memory as far
// as this body can prove), except append, which derives from its first
// argument.
func (s *fnScanner) originOf(e ast.Expr) origin {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := objectOf(s.mod.Info, e).(*types.Var); ok {
			if o, ok := s.origins[v]; ok {
				return o
			}
			if isGlobal(v) {
				return origin{kind: oGlobal}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := s.mod.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			// A field of a parameter value still derives from the
			// parameter; a field of anything else is persistent state.
			if base := s.originOf(e.X); base.kind == oParam {
				return base
			}
			return origin{kind: oField}
		}
		if v, ok := s.mod.Info.Uses[e.Sel].(*types.Var); ok && isGlobal(v) {
			return origin{kind: oGlobal}
		}
	case *ast.SliceExpr:
		return s.originOf(e.X)
	case *ast.IndexExpr:
		return s.originOf(e.X)
	case *ast.StarExpr:
		return s.originOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return s.originOf(e.X)
		}
	case *ast.CallExpr:
		if builtinCall(s.mod.Info, e) == "append" && len(e.Args) > 0 {
			return s.originOf(e.Args[0])
		}
	}
	return origin{kind: oFresh}
}

// addSite records one allocation site.
func (s *fnScanner) addSite(n ast.Node, class SiteClass, what string) {
	if class != SiteCold && s.pooled {
		class = SiteWarm
	}
	s.fe.Sites = append(s.fe.Sites, AllocSite{Node: n, Class: class, What: what})
}

// classify picks steady vs warm vs cold for a site: cold spans win, then
// field-destined assignment (a pooled buffer growing in place) is warm.
func (s *fnScanner) classify(n ast.Node, rhs ast.Expr) SiteClass {
	if s.isCold(n) {
		return SiteCold
	}
	if rhs != nil && s.fieldRHS[rhs] {
		return SiteWarm
	}
	return SiteSteady
}

// pointerish reports whether a type can alias memory (the only kinds a
// retain/escape of a parameter can leak through).
func pointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Interface, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// sitePass walks the body (including function-literal bodies, which
// execute as part of the enclosing function for allocation accounting)
// and records every allocation site, flow, and cap-reslice.
func (s *fnScanner) sitePass(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		var parent ast.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			s.scanCall(n)
		case *ast.CompositeLit:
			s.scanCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.handled[lit] = true
					class := s.classify(n, n)
					s.addSite(n, class, fmt.Sprintf("&%s literal", typeLabel(s.mod, lit)))
				}
			}
		case *ast.FuncLit:
			s.scanFuncLit(n, parent)
		case *ast.AssignStmt:
			s.scanAssign(n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if o := s.originOf(res); o.kind == oParam && pointerish(o.param.Type()) {
					s.fe.Flows = append(s.fe.Flows, ParamFlow{Node: n, Param: o.param})
				}
			}
		case *ast.SliceExpr:
			s.scanSliceExpr(n)
		}
		return true
	})
}

// scanCall classifies one call site: builtin allocators, conversions,
// known-allocating externals, and interface boxing of arguments.
func (s *fnScanner) scanCall(call *ast.CallExpr) {
	info := s.mod.Info
	cold := s.isCold(call)
	if cold {
		s.fe.ColdSites[call] = true
	}
	switch builtinCall(info, call) {
	case "":
	case "make", "new":
		s.addSite(call, s.classify(call, call), types.ExprString(call))
		return
	case "append":
		if len(call.Args) > 0 {
			s.scanAppend(call)
		}
		return
	default:
		return
	}
	// Conversions: string↔[]byte (and []rune) copy their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringBytesConv(tv.Type, info.Types[call.Args[0]].Type) {
			class := s.classify(call, call)
			s.addSite(call, class, fmt.Sprintf("%s conversion", types.ExprString(call.Fun)))
		}
		return
	}
	// Known-allocating external callees become sites of the caller
	// (externals have no bodies to scan).
	for _, e := range s.node.EdgesAt(call) {
		if s.mod.Graph.Node(e.Callee) != nil {
			continue
		}
		if knownAllocExternal(e.Callee) {
			class := SiteSteady
			if cold {
				class = SiteCold
			}
			s.addSite(call, class, fmt.Sprintf("call to %s.%s", e.Callee.Pkg().Name(), e.Callee.Name()))
			return // boxing into the same call would double-report
		}
		if warmExternal(e.Callee) {
			class := SiteWarm
			if cold {
				class = SiteCold
			}
			s.addSite(call, class, "sync.Pool refill")
			return
		}
	}
	s.scanBoxing(call)
}

// scanAppend classifies an append call by where its destination's memory
// lives: caller-owned (param), field- or package-owned backing storage
// grows amortized (warm); a fresh local grows on every call (steady).
func (s *fnScanner) scanAppend(call *ast.CallExpr) {
	class := SiteSteady
	switch s.originOf(call.Args[0]).kind {
	case oParam, oField, oGlobal:
		class = SiteWarm
	}
	if s.isCold(call) {
		class = SiteCold
	}
	s.addSite(call, class, fmt.Sprintf("append to %s", types.ExprString(call.Args[0])))
}

// scanBoxing flags concrete non-pointer arguments passed to interface
// parameters — each boxes into a fresh allocation.
func (s *fnScanner) scanBoxing(call *ast.CallExpr) {
	info := s.mod.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // spread of an existing slice: no per-element boxing here
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil {
			continue // constants fold; untyped nil has no boxing
		}
		switch atv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Basic:
			// Interfaces convert without boxing; pointers and funcs fit
			// in the interface word; untyped basics were caught as
			// constants above, and typed small scalars often use the
			// runtime's static boxes — all skipped to keep the signal
			// high. Structs, slices, maps and arrays always box.
			continue
		}
		class := SiteSteady
		if s.isCold(call) {
			class = SiteCold
		}
		s.addSite(call, class, fmt.Sprintf("%s boxed into interface argument", types.ExprString(arg)))
	}
}

// scanFuncLit flags escaping closures that capture variables. A literal
// called in place (directly, or via defer/go), or assigned to a local and
// invoked there, is a static func value plus stack captures — no site.
func (s *fnScanner) scanFuncLit(lit *ast.FuncLit, parent ast.Node) {
	escapes := true
	switch p := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == lit {
			escapes = false // directly invoked
		} else {
			for _, e := range s.node.EdgesAt(p) {
				if knownAllocExternal(e.Callee) {
					return // the call itself is already a site
				}
			}
		}
	case *ast.AssignStmt:
		escapes = false
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) == lit && i < len(p.Lhs) && s.isPersistentLHS(p.Lhs[i]) {
				escapes = true
			}
		}
	case *ast.ValueSpec:
		escapes = false // local func variable
	}
	if !escapes || !s.captures(lit) {
		return
	}
	class := SiteSteady
	if s.isCold(lit) {
		class = SiteCold
	}
	s.addSite(lit, class, "escaping closure captures variables")
}

// captures reports whether a literal references variables of the
// enclosing function.
func (s *fnScanner) captures(lit *ast.FuncLit) bool {
	decl := s.node.Decl
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := s.mod.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isGlobal(v) {
			return true
		}
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			found = true
		}
		return true
	})
	return found
}

// scanAssign records map-write sites and parameter-retaining stores.
func (s *fnScanner) scanAssign(n *ast.AssignStmt) {
	info := s.mod.Info
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if isMap(info.TypeOf(ix.X)) {
				class := SiteWarm
				if s.isCold(n) {
					class = SiteCold
				}
				s.addSite(n, class, fmt.Sprintf("map write to %s", types.ExprString(ix.X)))
			}
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		if !s.isPersistentLHS(n.Lhs[i]) {
			continue
		}
		if o := s.originOf(n.Rhs[i]); o.kind == oParam && pointerish(o.param.Type()) {
			s.fe.Flows = append(s.fe.Flows, ParamFlow{Node: n, Param: o.param, Store: true})
		}
	}
}

// scanSliceExpr flags p[…:cap(p)] on a parameter: reading capacity the
// caller never filled (the dirty-scratch contract forbids it).
func (s *fnScanner) scanSliceExpr(n *ast.SliceExpr) {
	base := s.originOf(n.X)
	if base.kind != oParam || n.High == nil {
		return
	}
	capCall, ok := ast.Unparen(n.High).(*ast.CallExpr)
	if !ok || len(capCall.Args) != 1 || builtinCall(s.mod.Info, capCall) != "cap" {
		return
	}
	if arg := s.originOf(capCall.Args[0]); arg.kind == oParam && arg.param == base.param {
		s.fe.CapReslices = append(s.fe.CapReslices, CapReslice{Node: n, Param: base.param})
	}
}

// isStringBytesConv reports a string↔[]byte/[]rune conversion.
func isStringBytesConv(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// scanCompositeLit flags slice- and map-typed literals (struct values and
// fixed arrays live on the stack; &T{…} is handled by the parent unary).
func (s *fnScanner) scanCompositeLit(lit *ast.CompositeLit) {
	if s.handled[lit] {
		return
	}
	t := s.mod.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		class := s.classify(lit, lit)
		s.addSite(lit, class, fmt.Sprintf("%s literal", typeLabel(s.mod, lit)))
	}
}

// typeLabel renders a composite literal's type for a message.
func typeLabel(mod *Module, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return types.ExprString(lit.Type)
	}
	if t := mod.Info.Types[lit].Type; t != nil {
		return t.String()
	}
	return "composite"
}

// ---------------------------------------------------------------------------
// Hot-path reachability

// hotRoot identifies the entry points of the zero-allocation contract:
// the machine's fault-service pair, the compression cache's insert, and
// every codec method matching the (dst, src []byte) contract shape in an
// internal/compress package.
func hotRoot(fn *types.Func) bool {
	if fnIn(fn, "internal/machine", map[string]bool{"PageIn": true, "PageOut": true}) {
		return true
	}
	if fnIn(fn, "internal/core", map[string]bool{"Insert": true}) {
		return true
	}
	return codecContract(fn)
}

// codecContract reports whether fn is a codec Compress/Decompress with
// the borrow-only signature shape:
//
//	Compress(dst, src []byte) []byte
//	Decompress(dst, src []byte) ([]byte, error)
//
// declared in an internal/compress package. The shape requirement keeps
// same-named helpers in other packages (and fixtures) out of scope.
func codecContract(fn *types.Func) bool {
	if fn == nil || !pathHasSuffix(pkgPath(fn), "internal/compress") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return false
	}
	if !isByteSlice(sig.Params().At(0).Type()) || !isByteSlice(sig.Params().At(1).Type()) {
		return false
	}
	res := sig.Results()
	switch fn.Name() {
	case "Compress":
		return res.Len() == 1 && isByteSlice(res.At(0).Type())
	case "Decompress":
		return res.Len() == 2 && isByteSlice(res.At(0).Type()) && isErrorType(res.At(1).Type())
	}
	return false
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// hotEdge reports whether the hot path continues along a call edge: the
// call site is not on an error/panic path, and the callee has a body
// (external callees are sites of the caller).
func (f *EffectFacts) hotEdge(from *Node, e Edge) bool {
	return !f.fns[from.Fn].ColdSites[e.Site] && f.mod.Graph.nodes[e.Callee] != nil
}

// HotChains computes, for every function reachable from a hot root along
// hot edges, the deterministic shortest chain from its root
// (CallGraph.Walk's order). The map is cached on the facts.
func (f *EffectFacts) HotChains() map[*types.Func][]*types.Func {
	if f.hot != nil {
		return f.hot
	}
	g := f.mod.Graph
	var roots []*types.Func
	for _, n := range g.order {
		if hotRoot(n.Fn) {
			roots = append(roots, n.Fn)
		}
	}
	prev := g.Walk(roots, f.hotEdge)
	f.hot = make(map[*types.Func][]*types.Func, len(prev))
	for fn := range prev {
		f.hot[fn] = chainTo(prev, fn)
	}
	return f.hot
}
