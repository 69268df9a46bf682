package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrder flags floating-point accumulation whose evaluation order the
// language does not fix. Float addition is not associative: summing the
// same numbers in a different order can change the last bits of the
// result, and the stats/exp layers aggregate exactly such sums (mean
// access times, compression ratios, overhead factors) into artifacts that
// are diffed byte-for-byte between runs. Two orderings are unfixed in Go:
//
//   - iteration over a map — the order is randomized per run, so
//     `for _, v := range m { sum += v }` with a float sum is a
//     nondeterministic reduction even single-threaded;
//   - goroutine interleaving — a float accumulator captured by a `go`
//     closure is reduced in scheduler order.
//
// Integer accumulation in either position is commutative and stays
// silent. The fix is the same one maprange teaches: materialize the keys,
// sort, then reduce — or index-slot per-goroutine partial sums and reduce
// them in index order after the join.
type FloatOrder struct{}

// Name implements Analyzer.
func (FloatOrder) Name() string { return "floatorder" }

// Doc implements Analyzer.
func (FloatOrder) Doc() string {
	return "flag float accumulation over map iteration or across goroutines; float sums are order-sensitive"
}

// Check implements Analyzer.
func (fo FloatOrder) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if !isMap(info.TypeOf(n.X)) {
					return true
				}
				out = append(out, fo.checkBody(pkg, info, n.Body, n.Body.Pos(), n.Body.End(),
					"inside map iteration; map order is random per run — sort the keys first")...)
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					out = append(out, fo.checkBody(pkg, info, lit.Body, lit.Pos(), lit.End(),
						"across goroutines; scheduler order decides the sum — index-slot partial sums and reduce after the join")...)
				}
			}
			return true
		})
	}
	return out
}

// checkBody flags float accumulations into variables declared outside
// [from, to) — accumulators local to the body reset every iteration and
// cannot carry order dependence out.
func (fo FloatOrder) checkBody(pkg *Package, info *types.Info, body *ast.BlockStmt, from, to token.Pos, why string) []Diagnostic {
	outside := func(id *ast.Ident) (types.Object, bool) {
		obj := info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || (v.Pos() >= from && v.Pos() < to) {
			return nil, false
		}
		return obj, true
	}
	var out []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		lhs := ast.Unparen(as.Lhs[0])
		id, ok := lhs.(*ast.Ident)
		if !ok {
			// Accumulation through a selector (st.sum += v) is just as
			// order-sensitive; use the root identifier for capture.
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id = rootIdent(sel.X)
			if id == nil {
				return true
			}
			lhs = sel
		}
		if !isFloat(info.TypeOf(lhs)) {
			return true
		}
		accum := false
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			accum = true
		case token.ASSIGN:
			// x = x + v (or x - v, x * v, x / v) spelled out.
			if bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					accum = exprMentions(info, bin, info.Uses[id])
				}
			}
		}
		if !accum {
			return true
		}
		if _, ok := outside(id); !ok {
			return true
		}
		out = append(out, diag(pkg, fo.Name(), as,
			"float accumulation %s", why))
		return true
	})
	return out
}

// isFloat reports whether t's underlying type is float32 or float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprMentions reports whether expr references obj.
func exprMentions(info *types.Info, expr ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
