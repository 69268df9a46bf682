package lint

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// FuzzIgnoreDirective hammers the //cclint:ignore directive parser with
// arbitrary tails (the text after the "cclint:ignore" prefix). The parser
// sits on the untrusted edge of the lint engine — every comment in the
// tree flows through it — so the invariants are checked directly:
//
//   - it never panics and never returns nil;
//   - every accepted analyzer name is in the known set, trimmed, and
//     never the unsuppressable hygiene pseudo-analyzer;
//   - a rejected name really is unknown;
//   - a present non-empty reason is never misparsed as missing (the
//     noReason flag is what turns a directive into a hygiene finding);
//   - parsing is deterministic.
//
// The checked-in seed corpus under testdata/fuzz/FuzzIgnoreDirective
// covers the shapes that have bitten in review: empty reasons,
// multi-analyzer lists, and malformed "--" separators.
func FuzzIgnoreDirective(f *testing.F) {
	seeds := []string{
		" walltime -- host-time progress report",
		" walltime,maprange,errdrop -- several analyzers at once",
		" walltime --",
		" -- reason with no analyzer",
		" kernelproto - - broken separator",
		" floatorder — em dash is not a separator",
		" cclint -- the hygiene pseudo-analyzer cannot be named",
		" , ,sharedwrite , -- ragged list",
		" unknownanalyzer -- not an analyzer",
		"",
		"----",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name()] = true
	}
	f.Fuzz(func(t *testing.T, rest string) {
		pos := token.Position{Filename: "fuzz.go", Line: 1, Column: 1}
		d := parseDirective(rest, pos, known)
		if d == nil {
			t.Fatal("parseDirective returned nil")
		}
		for _, name := range d.analyzers {
			if !known[name] || name == hygieneName {
				t.Fatalf("accepted analyzer %q is not in the known set", name)
			}
			if strings.TrimSpace(name) != name || name == "" {
				t.Fatalf("accepted analyzer name %q is not trimmed", name)
			}
		}
		for _, name := range d.badNames {
			if known[name] && name != hygieneName {
				t.Fatalf("rejected known analyzer %q", name)
			}
		}
		if _, reason, ok := strings.Cut(rest, "--"); ok && strings.TrimSpace(reason) != "" && d.noReason {
			t.Fatalf("reason present but noReason set for %q", rest)
		}
		if d2 := parseDirective(rest, pos, known); !reflect.DeepEqual(d, d2) {
			t.Fatalf("parseDirective is not deterministic for %q", rest)
		}
	})
}
