package lint

// effectdrift: effect-set growth of exported functions must be an
// explicit, reviewed diff. The checked-in .cclint-effects.json manifest
// records the inferred effect set of every exported function; when the
// inferred set gains an effect the manifest does not record, effectdrift
// warns at the declaration. Regenerating with `cclint -write-effects`
// puts the new set in the manifest, so the growth shows up in review as
// a JSON diff instead of sneaking in silently. Functions absent from
// the manifest never warn — a fresh tree (or a fixture module without a
// manifest) is quiet until someone records a baseline to hold.

// EffectDrift warns when an exported function's inferred effects exceed
// the recorded manifest.
type EffectDrift struct{}

// Name implements Analyzer.
func (EffectDrift) Name() string { return "effectdrift" }

// Doc implements Analyzer.
func (EffectDrift) Doc() string {
	return "exported function gained effects beyond the recorded .cclint-effects.json"
}

// Severity implements Analyzer.
func (EffectDrift) Severity() Severity { return SevWarn }

// Check implements Analyzer.
func (EffectDrift) Check(pkg *Package) []Diagnostic {
	manifest, err := pkg.Mod.effectsManifest()
	if err != nil {
		// A malformed manifest is itself a finding, reported once, on the
		// first package checked.
		if !pkg.Mod.manifestErrReported {
			pkg.Mod.manifestErrReported = true
			return []Diagnostic{{
				Analyzer: "effectdrift",
				Severity: SevError,
				File:     EffectsFile,
				Line:     1,
				Col:      1,
				Message:  err.Error(),
			}}
		}
		return nil
	}
	if len(manifest) == 0 {
		return nil
	}
	facts := pkg.Mod.Effects()
	var out []Diagnostic
	for _, n := range pkg.funcs {
		if !n.Fn.Exported() {
			continue
		}
		recorded, ok := manifest[n.Fn.FullName()]
		if !ok {
			continue
		}
		inferred := facts.Of(n.Fn).Summary
		if gained := inferred &^ recorded; gained != 0 {
			out = append(out, diag(pkg, "effectdrift", n.Decl.Name,
				"effects of %s grew beyond the recorded manifest: inferred {%s}, recorded {%s} — review and regenerate with -write-effects",
				n.Fn.Name(), inferred, recorded))
		}
	}
	return out
}
