package lint

// Dataflow and taint analysis: the flow-aware layer under the nondet
// analyzer. An intraprocedural def-use/taint pass runs once per declared
// function, then the per-function facts are joined interprocedurally over
// the existing call graph, iterating g.order deterministically to a
// monotone fixed point.
//
// The model is sources, sinks and sanitizers:
//
//   - Sources introduce nondeterminism. The standard-library ones are the
//     rows of one table (nondetSources) that walltime and globalrand ban
//     from and this engine taints from: host-clock reads (time.Now/
//     Since/Until), the process-global math/rand source, os environment
//     reads, runtime scheduler facts (NumGoroutine/NumCPU). The rest are
//     shapes: map iteration order, %p pointer formatting, and
//     uintptr(unsafe.Pointer) addresses. Seeded randomness (methods on a
//     *rand.Rand) is NOT a source — that is the sanctioned determinism
//     idiom.
//   - Sinks are the places a nondeterministic value would corrupt a
//     replayable artifact: the obs probes and exporters (Emit, Add, Set,
//     Observe, WriteEventsJSONL, WriteTimeline, ...) and experiment
//     table rows (exp Table.AddRow).
//   - Sanitizers kill ordering taint: the sort and slices functions that
//     sort (sortFuncs) and package-local helpers whose name starts with
//     "sort" (sortedObjects, which maprange asks too). Sorting fixes
//     iteration-order nondeterminism only, so value taint (a host-clock
//     reading) survives a sort.
//
// Taint is tracked flow-insensitively per function over three token
// kinds: a local source, a parameter (index), and a call-site result.
// The intraprocedural pass iterates to a (small) fixed point so taint
// flows through local rebinding chains, then records three relations:
// tokens reaching a return, tokens reaching a sink argument, and tokens
// reaching a module-internal call argument. Two interprocedural fixed
// points join these over the call graph: retSrcs (which sources a
// function's results may carry) and sinkParams (which parameters flow
// onward into a sink). Hits are resolved per function, with the
// deterministic shortest source→sink chain recovered through
// CallGraph.Path exactly as crosscredit prints its credit chains.
//
// Soundness caveats, mirroring the allocation scan's: receiver taint on
// module-internal method calls is dropped (only argument and result flow
// is joined across calls); interprocedural param-to-result propagation is
// resolved one level deep; taint stored into a struct field in one
// function and read back in another is not tracked; and external calls
// conservatively propagate their argument taint to their result, so
// fmt.Sprintf of a tainted value stays tainted but strconv-style
// laundering is impossible.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// TaintSource is one nondeterminism source site.
type TaintSource struct {
	// Node positions the source.
	Node ast.Node
	// Desc names the source for diagnostics ("time.Now host-clock value").
	Desc string
	// Order marks ordering nondeterminism (map iteration), the only kind
	// the sort sanitizers can kill.
	Order bool
}

// tok is one taint token: exactly one of src/call is set, or parm >= 0.
// Call tokens carry the result index they stand for, so an error result's
// taint does not contaminate its siblings — `rep, err := f()` taints rep
// only with what f's first result actually carries.
type tok struct {
	src  *TaintSource
	parm int
	call *ast.CallExpr
	ridx int // result index, for call tokens
}

func srcTok(s *TaintSource) tok          { return tok{src: s, parm: -1} }
func parmTok(i int) tok                  { return tok{parm: i} }
func callTok(c *ast.CallExpr, i int) tok { return tok{parm: -1, call: c, ridx: i} }

// retargetCall re-points call tokens of one call site at a different
// result index — the multi-assign `a, b := f()` hands callTok(f, 0) to a
// and callTok(f, 1) to b. Tokens of other (nested) calls pass unchanged.
func retargetCall(toks map[tok]bool, call *ast.CallExpr, i int) map[tok]bool {
	out := make(map[tok]bool, len(toks))
	for t := range toks {
		if t.call == call {
			t.ridx = i
		}
		out[t] = true
	}
	return out
}

// sinkArgFlow records taint reaching one sink call's arguments.
type sinkArgFlow struct {
	call   *ast.CallExpr
	callee *types.Func
	sink   string
	toks   map[tok]bool
}

// callArgFlow records taint reaching one module-internal call argument.
type callArgFlow struct {
	site   *ast.CallExpr
	callee *types.Func
	arg    int // callee parameter index (variadic-folded)
	toks   map[tok]bool
}

// fnTaint is the intraprocedural taint summary of one function. ret is
// indexed by result position, so the summary distinguishes an error
// result built from map-ordered keys from a sibling counter result.
type fnTaint struct {
	node     *Node
	ret      []map[tok]bool
	sinkArgs []sinkArgFlow
	callArgs []callArgFlow
}

// TaintHit is one resolved source→sink flow, reported by nondet.
type TaintHit struct {
	// Fn is the function the hit is reported in (the source side).
	Fn *types.Func
	// Node positions the diagnostic, always inside Fn's body.
	Node ast.Node
	// Source describes the nondeterminism source.
	Source string
	// Sink names the sink ("obs.Emit", "exp.AddRow").
	Sink string
	// Chain is the deterministic shortest call chain from Fn to the sink.
	Chain []*types.Func
}

// TaintFacts is the module-wide taint table, computed once per load.
type TaintFacts struct {
	mod  *Module
	fns  map[*types.Func]*fnTaint
	hits map[*types.Func][]TaintHit
}

// Taint returns the module's taint facts, computing them on first use.
func (m *Module) Taint() *TaintFacts {
	if m.taint == nil {
		m.taint = computeTaint(m)
	}
	return m.taint
}

// HitsIn returns the resolved source→sink hits whose source lies in fn.
func (f *TaintFacts) HitsIn(fn *types.Func) []TaintHit { return f.hits[fn] }

// ---------------------------------------------------------------------------
// Source, sink and sanitizer tables.

// nondetSource is one row of the source table: the single list of
// host-dependent standard-library entry points, read by walltime,
// globalrand and nondet alike.
type nondetSource struct {
	// pkgs are the import paths the row's functions live in.
	pkgs []string
	// names are the package-level functions; nil means every exported one
	// except the seeded constructors (randConstructors).
	names []string
	// ban names the analyzer that forbids any reference to these functions
	// module-wide, called or handed around as a value; "" = allowed where
	// the value stays out of replayable output.
	ban string
	// taint describes the value a call returns, as a pattern over the
	// function name; "" = the result carries nothing for nondet to track
	// (time.Sleep returns nothing, time.After a channel).
	taint string
}

// nondetSources is the table. The time rows forbid reads of and waits on
// the host clock only: types and pure arithmetic (time.Duration,
// time.Microsecond, d.Round(...)) are fine — the simulation uses
// time.Duration as its unit of virtual time.
var nondetSources = []nondetSource{
	{pkgs: []string{"time"}, names: []string{"Now", "Since", "Until"}, ban: "walltime", taint: "time.%s host-clock value"},
	{pkgs: []string{"time"}, names: []string{"Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"}, ban: "walltime"},
	{pkgs: randPkgs, ban: "globalrand", taint: "global rand.%s value"},
	{pkgs: []string{"os"}, names: []string{"Getenv", "LookupEnv", "Environ", "Getpid", "Getppid", "Hostname"}, taint: "os.%s environment value"},
	{pkgs: []string{"runtime"}, names: []string{"NumGoroutine", "NumCPU"}, taint: "runtime.%s scheduler value"},
}

// randPkgs are the two generations of math/rand; randConstructors are their
// package-level names that do not touch the global source.
var (
	randPkgs         = []string{"math/rand", "math/rand/v2"}
	randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}
)

// nondetSourceOf returns fn's row in the source table, or nil. Only
// package-level functions match: t.After(u) compares two values, and
// methods on a seeded *rand.Rand are the sanctioned determinism idiom.
func nondetSourceOf(fn *types.Func) *nondetSource {
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	for i := range nondetSources {
		row := &nondetSources[i]
		if !slices.Contains(row.pkgs, pkgPath(fn)) {
			continue
		}
		if (row.names == nil && fn.Exported() && !randConstructors[fn.Name()]) || slices.Contains(row.names, fn.Name()) {
			return row
		}
	}
	return nil
}

// bannedBy reports whether the named analyzer forbids referencing fn.
func bannedBy(fn *types.Func, analyzer string) bool {
	row := nondetSourceOf(fn)
	return row != nil && row.ban == analyzer
}

// nondetSinkFn reports whether fn is an output sink: the obs probes and
// exporters, and experiment table rows. Matching is by package-path
// suffix plus name, the same scoping rule every call-graph analyzer uses.
func nondetSinkFn(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	if fnIn(fn, "internal/obs", obsSinkFuncs) {
		return "obs." + fn.Name(), true
	}
	if fnIn(fn, "internal/exp", expSinkFuncs) {
		return "exp." + fn.Name(), true
	}
	return "", false
}

// obsSinkFuncs are the observability entry points a nondeterministic
// value must never reach: the metric probes and every exporter.
var obsSinkFuncs = map[string]bool{
	"Emit": true, "Add": true, "Inc": true, "Set": true, "Observe": true,
	"WriteEventsJSONL": true, "WriteEventsCSV": true, "WriteTimeline": true,
	"WriteClassSummary": true, "WriteCSV": true,
}

// expSinkFuncs are the experiment-table sinks (golden Table 1 / Figure 3
// output and the extension tables).
var expSinkFuncs = map[string]bool{"AddRow": true}

// isNondetSink adapts nondetSinkFn to a reachability predicate.
func isNondetSink(fn *types.Func) bool {
	_, ok := nondetSinkFn(fn)
	return ok
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
// sanitizer anywhere — the collect-then-sort idiom. It is the one sort
// sanitizer: maprange lets an append into such a variable pass, and the
// taint engine keeps ordering taint off it.
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

// ---------------------------------------------------------------------------
// Intraprocedural pass.

// taintScanner walks one function body to a local taint fixed point.
type taintScanner struct {
	mod        *Module
	node       *Node
	params     map[types.Object]int
	results    []types.Object // named result objects (nil entries when unnamed)
	numResults int
	tainted    map[types.Object]map[tok]bool
	sanitized  map[types.Object]bool
	srcMemo    map[ast.Node]*TaintSource
	ft         *fnTaint
	changed    bool
}

func scanFnTaint(mod *Module, node *Node) *fnTaint {
	ft := &fnTaint{node: node}
	s := &taintScanner{
		mod:       mod,
		node:      node,
		params:    make(map[types.Object]int),
		tainted:   make(map[types.Object]map[tok]bool),
		sanitized: sortedObjects(mod.Info, node.Decl.Body),
		srcMemo:   make(map[ast.Node]*TaintSource),
		ft:        ft,
	}
	sig := node.Fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		s.params[sig.Params().At(i)] = i
	}
	s.numResults = sig.Results().Len()
	for i := 0; i < s.numResults; i++ {
		r := sig.Results().At(i)
		if r.Name() != "" {
			s.results = append(s.results, r)
		} else {
			s.results = append(s.results, nil)
		}
	}
	// Iterate the flow-insensitive propagation to a fixed point (bounded:
	// each round can only add tokens to objects). The final round runs
	// with a stable tainted set, so its collected relations stand.
	for range 16 {
		s.changed = false
		s.walk(node.Decl.Body)
		if !s.changed {
			break
		}
	}
	return ft
}

// addTaint joins tokens into the taint set of an assignment target's local
// (localVar: fields and globals are not tracked). Sanitized objects
// reject ordering taint — sorting is exactly what makes map-order
// collection deterministic — but value taint passes through a sort.
func (s *taintScanner) addTaint(obj types.Object, toks map[tok]bool) {
	if obj == nil || len(toks) == 0 {
		return
	}
	set := s.tainted[obj]
	for t := range toks {
		if s.sanitized[obj] && t.src != nil && t.src.Order {
			continue
		}
		if !set[t] {
			if set == nil {
				set = make(map[tok]bool)
				s.tainted[obj] = set
			}
			set[t] = true
			s.changed = true
		}
	}
}

// walk runs one propagation round and (re)collects the flow relations.
func (s *taintScanner) walk(body *ast.BlockStmt) {
	s.ft.ret = make([]map[tok]bool, s.numResults)
	for i := range s.ft.ret {
		s.ft.ret[i] = make(map[tok]bool)
	}
	s.ft.sinkArgs = nil
	s.ft.callArgs = nil
	var stack []ast.Node
	litDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				litDepth--
			}
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			litDepth++
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			s.scanAssignTaint(n)
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					s.addTaint(localVar(s.mod.Info, name), s.toksOf(n.Values[i]))
				}
			}
		case *ast.RangeStmt:
			s.scanRangeTaint(n)
		case *ast.ReturnStmt:
			if litDepth == 0 {
				s.scanReturnTaint(n)
			}
		case *ast.CallExpr:
			s.recordCallFlows(n)
		}
		return true
	})
}

// scanAssignTaint propagates RHS taint into assignable locals, including
// compound ops (s += x keeps and extends existing taint) and multi-value
// calls, where each LHS carries the call token for its own result index
// (comma-ok and other non-call multi-forms share the whole token set).
func (s *taintScanner) scanAssignTaint(n *ast.AssignStmt) {
	switch {
	case len(n.Lhs) == len(n.Rhs):
		for i := range n.Lhs {
			s.addTaint(localVar(s.mod.Info, n.Lhs[i]), s.toksOf(n.Rhs[i]))
		}
	case len(n.Rhs) == 1:
		toks := s.toksOf(n.Rhs[0])
		call, isCall := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		for i, lhs := range n.Lhs {
			if isCall && len(n.Lhs) > 1 {
				s.addTaint(localVar(s.mod.Info, lhs), retargetCall(toks, call, i))
				continue
			}
			s.addTaint(localVar(s.mod.Info, lhs), toks)
		}
	}
}

// scanReturnTaint records which tokens each result position carries. A
// bare return drains the named result objects; `return f()` forwarding a
// multi-value call re-points the call token at each position.
func (s *taintScanner) scanReturnTaint(n *ast.ReturnStmt) {
	record := func(i int, toks map[tok]bool) {
		if i >= len(s.ft.ret) {
			return
		}
		for t := range toks {
			s.ft.ret[i][t] = true
		}
	}
	switch {
	case len(n.Results) == 0:
		for i, obj := range s.results {
			if obj != nil {
				record(i, s.tainted[obj])
			}
		}
	case len(n.Results) == 1 && s.numResults > 1:
		toks := s.toksOf(n.Results[0])
		call, isCall := ast.Unparen(n.Results[0]).(*ast.CallExpr)
		for i := 0; i < s.numResults; i++ {
			if isCall {
				record(i, retargetCall(toks, call, i))
			} else {
				record(i, toks)
			}
		}
	default:
		for i, res := range n.Results {
			record(i, s.toksOf(res))
		}
	}
}

// scanRangeTaint taints a map range's key/value with the iteration-order
// source, and propagates the ranged expression's own taint into both.
func (s *taintScanner) scanRangeTaint(n *ast.RangeStmt) {
	toks := s.toksOf(n.X)
	if isMap(s.mod.Info.TypeOf(n.X)) {
		src := s.sourceAt(n, fmt.Sprintf("iteration order of map %s", types.ExprString(n.X)), true)
		toks = unionToks(toks, map[tok]bool{srcTok(src): true})
	}
	if id, ok := n.Key.(*ast.Ident); ok {
		s.addTaint(localVar(s.mod.Info, id), toks)
	}
	if id, ok := n.Value.(*ast.Ident); ok {
		s.addTaint(localVar(s.mod.Info, id), toks)
	}
}

// recordCallFlows collects sink-argument and internal-call-argument taint
// for one call site.
func (s *taintScanner) recordCallFlows(call *ast.CallExpr) {
	for _, e := range s.node.EdgesAt(call) {
		if label, ok := nondetSinkFn(e.Callee); ok {
			toks := make(map[tok]bool)
			for _, arg := range call.Args {
				toks = unionToks(toks, s.toksOf(arg))
			}
			if len(toks) > 0 {
				s.ft.sinkArgs = append(s.ft.sinkArgs, sinkArgFlow{call: call, callee: e.Callee, sink: label, toks: toks})
			}
			continue
		}
		if s.mod.Graph.Node(e.Callee) == nil {
			continue // external: argument flow handled in toksOf
		}
		sig, ok := e.Callee.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i, arg := range call.Args {
			toks := s.toksOf(arg)
			if len(toks) == 0 {
				continue
			}
			pi := paramIndexFor(sig, i)
			if pi < 0 {
				continue
			}
			s.ft.callArgs = append(s.ft.callArgs, callArgFlow{site: call, callee: e.Callee, arg: pi, toks: toks})
		}
	}
}

// paramIndexFor folds an argument position onto a parameter index
// (variadic arguments all land on the last parameter).
func paramIndexFor(sig *types.Signature, arg int) int {
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if sig.Variadic() && arg >= n-1 {
		return n - 1
	}
	if arg < n {
		return arg
	}
	return -1
}

func unionToks(a, b map[tok]bool) map[tok]bool {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		out := make(map[tok]bool, len(b))
		for t := range b {
			out[t] = true
		}
		return out
	}
	for t := range b {
		a[t] = true
	}
	return a
}

// toksOf resolves the taint tokens an expression's value may carry.
func (s *taintScanner) toksOf(e ast.Expr) map[tok]bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := objectOf(s.mod.Info, e)
		if obj == nil {
			return nil
		}
		out := map[tok]bool{}
		for t := range s.tainted[obj] {
			out[t] = true
		}
		if i, ok := s.params[obj]; ok {
			out[parmTok(i)] = true
		}
		if len(out) == 0 {
			return nil
		}
		return out
	case *ast.SelectorExpr:
		if sel, ok := s.mod.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return s.toksOf(e.X)
		}
		return nil
	case *ast.IndexExpr:
		return unionToks(s.toksOf(e.X), s.toksOf(e.Index))
	case *ast.SliceExpr:
		return s.toksOf(e.X)
	case *ast.StarExpr:
		return s.toksOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return nil // channel receive: kernelproto's jurisdiction
		}
		return s.toksOf(e.X)
	case *ast.BinaryExpr:
		return unionToks(s.toksOf(e.X), s.toksOf(e.Y))
	case *ast.CompositeLit:
		var out map[tok]bool
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = unionToks(out, s.toksOf(el))
		}
		return out
	case *ast.CallExpr:
		return s.toksOfCall(e)
	case *ast.TypeAssertExpr:
		return s.toksOf(e.X)
	}
	return nil
}

// toksOfCall resolves a call expression: source calls mint a token,
// sanitizers return clean, conversions and builtins propagate operands,
// internal calls yield a call token, and external calls conservatively
// propagate receiver and argument taint (so time.Now().UnixNano() and
// fmt.Sprintf("%d", tainted) both stay tainted).
func (s *taintScanner) toksOfCall(call *ast.CallExpr) map[tok]bool {
	info := s.mod.Info
	if sanitizerCall(info, call) {
		return nil
	}
	// Builtins: append derives from every argument; len/cap/make/new are
	// deterministic (a tainted slice's length is not itself tainted).
	switch builtinCall(info, call) {
	case "":
	case "append":
		var out map[tok]bool
		for _, a := range call.Args {
			out = unionToks(out, s.toksOf(a))
		}
		return out
	default:
		return nil
	}
	// Conversions propagate their operand; uintptr(unsafe.Pointer) is
	// additionally an address source.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		out := s.toksOf(call.Args[0])
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if at := info.TypeOf(call.Args[0]); at != nil {
				if ab, ok := at.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					out = unionToks(out, map[tok]bool{srcTok(s.sourceAt(call, "uintptr(unsafe.Pointer) address", false)): true})
				}
			}
		}
		return out
	}
	var internal bool
	var out map[tok]bool
	for _, e := range s.node.EdgesAt(call) {
		if row := nondetSourceOf(e.Callee); row != nil && row.taint != "" {
			desc := fmt.Sprintf(row.taint, e.Callee.Name())
			out = unionToks(out, map[tok]bool{srcTok(s.sourceAt(call, desc, false)): true})
			continue
		}
		if s.mod.Graph.Node(e.Callee) != nil {
			internal = true
		}
	}
	if internal {
		return unionToks(out, map[tok]bool{callTok(call, 0): true})
	}
	if out != nil {
		return out
	}
	// %p pointer formatting through fmt is an address source.
	if s.fmtPointerCall(call) {
		return map[tok]bool{srcTok(s.sourceAt(call, fmt.Sprintf("%s %%p pointer formatting", callName(call)), false)): true}
	}
	// External call: propagate receiver and argument taint.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s2, ok := info.Selections[sel]; ok && s2.Kind() == types.MethodVal {
			out = unionToks(out, s.toksOf(sel.X))
		}
	}
	for _, a := range call.Args {
		out = unionToks(out, s.toksOf(a))
	}
	return out
}

// sourceAt memoizes one TaintSource per site, so repeated propagation
// rounds reuse the same token and the fixed point terminates.
func (s *taintScanner) sourceAt(n ast.Node, desc string, order bool) *TaintSource {
	if src := s.srcMemo[n]; src != nil {
		return src
	}
	src := &TaintSource{Node: n, Desc: desc, Order: order}
	s.srcMemo[n] = src
	return src
}

// fmtPointerCall reports a fmt call whose constant format string contains
// %p — the classic way a heap address sneaks into output.
func (s *taintScanner) fmtPointerCall(call *ast.CallExpr) bool {
	for _, e := range s.node.EdgesAt(call) {
		if pkgPath(e.Callee) == "fmt" {
			for _, a := range call.Args {
				if lit, ok := ast.Unparen(a).(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%p") {
					return true
				}
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Interprocedural join and hit resolution.

// computeTaint scans every declared function, runs the two interprocedural
// fixed points, and resolves every source→sink hit.
func computeTaint(mod *Module) *TaintFacts {
	tf := &TaintFacts{
		mod:  mod,
		fns:  make(map[*types.Func]*fnTaint),
		hits: make(map[*types.Func][]TaintHit),
	}
	g := mod.Graph
	for _, n := range g.order {
		tf.fns[n.Fn] = scanFnTaint(mod, n)
	}

	// sinkParams: (fn, param) pairs whose incoming value flows onward into
	// a sink — directly via a sink argument, or transitively through an
	// internal call whose parameter already forwards. Monotone OR-join.
	sinkParams := make(map[*types.Func]map[int]bool)
	markSink := func(fn *types.Func, i int) bool {
		set := sinkParams[fn]
		if set == nil {
			set = make(map[int]bool)
			sinkParams[fn] = set
		}
		if set[i] {
			return false
		}
		set[i] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			ft := tf.fns[n.Fn]
			for _, sa := range ft.sinkArgs {
				for t := range sa.toks {
					if t.parm >= 0 && markSink(n.Fn, t.parm) {
						changed = true
					}
				}
			}
			for _, ca := range ft.callArgs {
				if !sinkParams[ca.callee][ca.arg] {
					continue
				}
				for t := range ca.toks {
					if t.parm >= 0 && markSink(n.Fn, t.parm) {
						changed = true
					}
				}
			}
		}
	}

	// retSrcs: the local sources each result position of a function may
	// carry, joined through call-result tokens reaching returns — indexed
	// per result so an error built from map-ordered keys does not taint a
	// sibling counter. paramRets records which parameters flow to which
	// result positions (for one-level call resolution).
	retSrcs := make(map[retKey]map[*TaintSource]bool)
	paramRets := make(map[retKey]map[int]bool)
	for _, n := range g.order {
		ft := tf.fns[n.Fn]
		for i, set := range ft.ret {
			k := retKey{n.Fn, i}
			for t := range set {
				switch {
				case t.src != nil:
					if retSrcs[k] == nil {
						retSrcs[k] = make(map[*TaintSource]bool)
					}
					retSrcs[k][t.src] = true
				case t.parm >= 0:
					if paramRets[k] == nil {
						paramRets[k] = make(map[int]bool)
					}
					paramRets[k][t.parm] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			ft := tf.fns[n.Fn]
			for i, set := range ft.ret {
				k := retKey{n.Fn, i}
				for t := range set {
					if t.call == nil {
						continue
					}
					for _, callee := range calleesAt(n, t.call) {
						for src := range retSrcs[retKey{callee, t.ridx}] {
							if !retSrcs[k][src] {
								if retSrcs[k] == nil {
									retSrcs[k] = make(map[*TaintSource]bool)
								}
								retSrcs[k][src] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}

	// Hit resolution, per function in declaration order.
	for _, n := range g.order {
		ft := tf.fns[n.Fn]
		var hits []TaintHit
		for _, sa := range ft.sinkArgs {
			chain := []*types.Func{n.Fn, sa.callee}
			for _, t := range sortedToks(sa.toks) {
				switch {
				case t.src != nil:
					hits = append(hits, TaintHit{Fn: n.Fn, Node: t.src.Node, Source: t.src.Desc, Sink: sa.sink, Chain: chain})
				case t.call != nil:
					for _, src := range tf.callResultSources(n, t.call, t.ridx, retSrcs, paramRets) {
						hits = append(hits, TaintHit{Fn: n.Fn, Node: t.call, Source: src, Sink: sa.sink, Chain: chain})
					}
				}
			}
		}
		for _, ca := range ft.callArgs {
			if !sinkParams[ca.callee][ca.arg] {
				continue
			}
			sinkChain := g.Path(ca.callee, isNondetSink)
			if sinkChain == nil {
				continue
			}
			chain := append([]*types.Func{n.Fn}, sinkChain...)
			sink, _ := nondetSinkFn(chain[len(chain)-1])
			for _, t := range sortedToks(ca.toks) {
				switch {
				case t.src != nil:
					hits = append(hits, TaintHit{Fn: n.Fn, Node: t.src.Node, Source: t.src.Desc, Sink: sink, Chain: chain})
				case t.call != nil:
					for _, src := range tf.callResultSources(n, t.call, t.ridx, retSrcs, paramRets) {
						hits = append(hits, TaintHit{Fn: n.Fn, Node: ca.site, Source: src, Sink: sink, Chain: chain})
					}
				}
			}
		}
		if hits != nil {
			tf.hits[n.Fn] = dedupHits(mod, hits)
		}
	}
	return tf
}

// calleesAt lists the module-internal callees of one call site, in edge
// order.
func calleesAt(n *Node, site *ast.CallExpr) []*types.Func {
	var out []*types.Func
	for _, e := range n.EdgesAt(site) {
		if n.Pkg.Mod.Graph.Node(e.Callee) != nil {
			out = append(out, e.Callee)
		}
	}
	return out
}

// retKey addresses one result position of one function.
type retKey struct {
	fn   *types.Func
	ridx int
}

// callResultSources describes the nondeterminism one result of a call may
// carry: the callee's own returned sources at that position, plus (one
// level deep) tainted arguments the callee passes through to it.
func (tf *TaintFacts) callResultSources(n *Node, site *ast.CallExpr, ridx int, retSrcs map[retKey]map[*TaintSource]bool, paramRets map[retKey]map[int]bool) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(desc string) {
		if !seen[desc] {
			seen[desc] = true
			out = append(out, desc)
		}
	}
	for _, callee := range calleesAt(n, site) {
		k := retKey{callee, ridx}
		var srcs []*TaintSource
		for src := range retSrcs[k] {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i].Node.Pos() < srcs[j].Node.Pos() })
		for _, src := range srcs {
			add(fmt.Sprintf("%s (returned by %s)", src.Desc, callee.Name()))
		}
		if len(paramRets[k]) == 0 {
			continue
		}
		for _, ca := range tf.fns[n.Fn].callArgs {
			if ca.site != site || ca.callee != callee || !paramRets[k][ca.arg] {
				continue
			}
			for _, t := range sortedToks(ca.toks) {
				if t.src != nil {
					add(fmt.Sprintf("%s (through %s)", t.src.Desc, callee.Name()))
				}
			}
		}
	}
	return out
}

// sortedToks orders a token set deterministically: sources by position,
// then call tokens by position, then parameters by index.
func sortedToks(toks map[tok]bool) []tok {
	out := make([]tok, 0, len(toks))
	for t := range toks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ra, rb := tokRank(a), tokRank(b)
		if ra != rb {
			return ra < rb
		}
		switch {
		case a.src != nil:
			return a.src.Node.Pos() < b.src.Node.Pos()
		case a.call != nil:
			if a.call.Pos() != b.call.Pos() {
				return a.call.Pos() < b.call.Pos()
			}
			return a.ridx < b.ridx
		default:
			return a.parm < b.parm
		}
	})
	return out
}

func tokRank(t tok) int {
	switch {
	case t.src != nil:
		return 0
	case t.call != nil:
		return 1
	default:
		return 2
	}
}

// dedupHits drops repeated (position, source, sink) triples, keeping the
// first (shortest-chain) occurrence, and sorts by position.
func dedupHits(mod *Module, hits []TaintHit) []TaintHit {
	seen := make(map[string]bool)
	var out []TaintHit
	for _, h := range hits {
		pos := mod.Fset.Position(h.Node.Pos())
		key := fmt.Sprintf("%s:%d:%d|%s|%s", pos.Filename, pos.Line, pos.Column, h.Source, h.Sink)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, h)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Node.Pos() < out[j].Node.Pos()
	})
	return out
}
