package lint

import "go/types"

// CrossCredit guards the cost accounting of the simulated machine: work
// advances the clock. It walks the module-wide call graph: an exported
// function of internal/machine, internal/swap or internal/disk that is, or
// transitively reaches, codec work (internal/compress Compress/Decompress,
// resolved through interfaces by method-set matching) or raw device I/O
// (internal/disk Read/Write/ReadCluster/WriteCluster) must also transitively
// reach a virtual-clock advance ((*sim.Clock).Advance / AdvanceTo, or the
// kernel's Wait / Schedule) — otherwise simulated work is happening that no
// experiment ever pays for, silently skewing Table 1 and Figure 3 while
// every test stays green. Where the work and the credit sit — the same
// package or three packages away — makes no difference.
type CrossCredit struct{}

// Name implements Analyzer.
func (CrossCredit) Name() string { return "crosscredit" }

// Doc implements Analyzer.
func (CrossCredit) Doc() string {
	return "exported machine/swap/disk methods reaching codec or device work must advance the virtual clock"
}

// crossCreditScopes are the package-path suffixes whose exported API owns
// chargeable simulation work.
var crossCreditScopes = []string{"internal/machine", "internal/swap", "internal/disk"}

// codecFuncs are the chargeable codec entry points in internal/compress.
var codecFuncs = map[string]bool{"Compress": true, "Decompress": true}

// deviceFuncs are the chargeable device entry points in internal/disk.
var deviceFuncs = map[string]bool{"Read": true, "Write": true, "ReadCluster": true, "WriteCluster": true}

// isChargeableWork reports whether fn is a chargeable work primitive.
func isChargeableWork(fn *types.Func) bool {
	return fnIn(fn, "internal/compress", codecFuncs) || fnIn(fn, "internal/disk", deviceFuncs)
}

// advanceOps are the virtual-clock charging calls. Advance/AdvanceTo are the
// clock's own methods; Wait/Schedule are the kernel's — on an attached clock
// every Advance is a kernel-mediated Wait, so a method reaching the kernel
// API directly has charged its actor's clock just the same.
var advanceOps = map[string]bool{"Advance": true, "AdvanceTo": true, "Wait": true, "Schedule": true}

// isClockAdvance reports whether fn is a virtual-clock charging call.
func isClockAdvance(fn *types.Func) bool {
	return fnIn(fn, "internal/sim", advanceOps)
}

// Check implements Analyzer.
func (c CrossCredit) Check(pkg *Package) []Diagnostic {
	if !inScopes(pkg.Path, crossCreditScopes) {
		return nil
	}
	credited := pkg.Mod.factSet("crosscredit.credited", isClockAdvance)

	var out []Diagnostic
	for _, n := range pkg.funcs {
		if !n.Fn.Exported() || credited[n.Fn] {
			continue
		}
		chain := pkg.Mod.Graph.Path(n.Fn, isChargeableWork)
		if chain == nil {
			continue
		}
		out = append(out, diag(pkg, c.Name(), n.Decl.Name,
			"%s does codec/device work (%s) but no call path ever advances the virtual clock; this cost is uncharged",
			n.Fn.Name(), chainString(chain)))
	}
	return out
}

// inScopes reports whether an import path ends in one of the suffixes.
func inScopes(path string, scopes []string) bool {
	for _, s := range scopes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}
