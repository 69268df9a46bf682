package lint

// bufown: the borrow-only buffer ownership contracts, checked statically.
//
// Three families of functions receive buffers they may only borrow for
// the duration of the call:
//
//   - Codec Compress(dst, src []byte) []byte and
//     Decompress(dst, src []byte) ([]byte, error) in internal/compress:
//     src is the caller's page (read-only borrow), dst is a recycled
//     scratch buffer whose contents beyond len are garbage (the
//     FuzzCompressDirtyScratch contract). Returning dst-derived memory
//     is the contract; returning src-derived memory aliases the caller's
//     page into the compressed stream.
//   - core.Cache.Insert: the data argument is the page being inserted;
//     the cache must copy it into its own slab, never keep the slice.
//   - machine.PageIn/PageOut []byte arguments: frames on loan from the
//     memory pool.
//
// Violations reported: a borrowed buffer stored into a field, package
// variable or map (retained past the call); src-derived memory aliased
// into a return value; and p[…:cap(p)] on a borrowed buffer (reading
// capacity the caller never filled). The taint tracking launders at call
// boundaries — a callee that misbehaves with the forwarded buffer is
// caught when bufown analyzes the callee's own contract, or not at all
// (a documented soundness caveat).

import "go/types"

// BufOwn reports violations of the borrow-only buffer contracts.
type BufOwn struct{}

// Name implements Analyzer.
func (BufOwn) Name() string { return "bufown" }

// Doc implements Analyzer.
func (BufOwn) Doc() string {
	return "borrowed codec/cache buffers must not be retained, returned (src), or read past len"
}

// borrowRole says what the contract allows for one borrowed parameter.
type borrowRole int

const (
	// roleBorrowed may be read and written within len, never kept.
	roleBorrowed borrowRole = iota
	// roleDst is a codec's recycled destination: appending and returning
	// it is the contract, but its capacity beyond len is garbage and it
	// must not be retained.
	roleDst
	// roleSrc is a codec's source page: read-only, never returned.
	roleSrc
)

// contractParams returns the borrowed parameters of fn, or nil when fn
// carries no ownership contract.
func contractParams(fn *types.Func) map[*types.Var]borrowRole {
	if codecContract(fn) {
		sig := fn.Type().(*types.Signature)
		return map[*types.Var]borrowRole{
			sig.Params().At(0): roleDst,
			sig.Params().At(1): roleSrc,
		}
	}
	borrowAll := fnIn(fn, "internal/core", map[string]bool{"Insert": true}) ||
		fnIn(fn, "internal/machine", map[string]bool{"PageIn": true, "PageOut": true})
	if !borrowAll {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[*types.Var]borrowRole)
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isByteSlice(p.Type()) {
			out[p] = roleBorrowed
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Check implements Analyzer.
func (BufOwn) Check(pkg *Package) []Diagnostic {
	facts := pkg.Mod.Effects()
	var out []Diagnostic
	for _, n := range pkg.funcs {
		borrowed := contractParams(n.Fn)
		if borrowed == nil {
			continue
		}
		fe := facts.Of(n.Fn)
		for _, fl := range fe.Flows {
			role, ok := borrowed[fl.Param]
			if !ok {
				continue
			}
			if fl.Store {
				out = append(out, diag(pkg, "bufown", fl.Node,
					"%s retains borrowed buffer %s past the call (must copy, not keep)",
					n.Fn.Name(), fl.Param.Name()))
				continue
			}
			if role != roleDst {
				out = append(out, diag(pkg, "bufown", fl.Node,
					"%s returns memory derived from borrowed buffer %s (aliases the caller's page)",
					n.Fn.Name(), fl.Param.Name()))
			}
		}
		for _, cr := range fe.CapReslices {
			if _, ok := borrowed[cr.Param]; ok {
				out = append(out, diag(pkg, "bufown", cr.Node,
					"%s reslices borrowed buffer %s to cap, reading past len (dirty-scratch contract)",
					n.Fn.Name(), cr.Param.Name()))
			}
		}
	}
	return out
}
