package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests are a hand-rolled, stdlib-only analysistest: the whole
// of testdata/src is mounted once as a pretend module named "compcache"
// (so fixture packages get import paths like "compcache/errdrop/internal/vm"
// and can import each other), each fixture subtree is selected, the full analyzer suite (plus
// ignore-directive processing) runs over it, and every diagnostic must
// match a trailing
//
//	// want `regexp` [`regexp` ...]
//
// comment on its line — with unmatched wants and unexpected diagnostics
// both failing the test. Running the whole suite (not one analyzer per
// fixture) also locks in that analyzers do not fire on each other's clean
// examples.

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

// fixtureModule loads testdata/src once for the whole test binary; the
// type check of the fixture tree (and the stdlib it imports) is the
// expensive part, and every golden test shares it.
func fixtureModule(t *testing.T) *Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = LoadTree(filepath.Join("testdata", "src"), "compcache")
	})
	if fixtureErr != nil {
		t.Fatalf("LoadTree(testdata/src): %v", fixtureErr)
	}
	if len(fixtureMod.TypeErrors) > 0 {
		t.Fatalf("fixture module must type-check cleanly, got: %v", fixtureMod.TypeErrors)
	}
	return fixtureMod
}

// selectFixture resolves one fixture subtree to its loaded packages.
func selectFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	mod := fixtureModule(t)
	pkgs, err := mod.Select(".", []string{dir + "/..."})
	if err != nil {
		t.Fatalf("Select(%s): %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Select(%s): no packages", dir)
	}
	return pkgs
}

// wantRE extracts the backquoted patterns after a "// want" marker.
var wantRE = regexp.MustCompile("`([^`]*)`")

type want struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants scans a package's raw source lines for want comments.
func parseWants(t *testing.T, pkg *Package) map[string]map[int][]*want {
	t.Helper()
	wants := map[string]map[int][]*want{}
	for file, lines := range pkg.Lines {
		for i, line := range lines {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", file, i+1, m[1], err)
				}
				if wants[file] == nil {
					wants[file] = map[int][]*want{}
				}
				wants[file][i+1] = append(wants[file][i+1], &want{re: re})
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, dir string) {
	t.Helper()
	pkgs := selectFixture(t, dir)
	wants := map[string]map[int][]*want{}
	for _, pkg := range pkgs {
		for file, byLine := range parseWants(t, pkg) {
			wants[file] = byLine
		}
	}

	diags := Run(pkgs, All())
	for _, d := range diags {
		found := false
		for _, w := range wants[d.File][d.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for file, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matched want `%s`", file, line, w.re)
				}
			}
		}
	}
}

func TestWalltimeGolden(t *testing.T)    { runGolden(t, "testdata/src/walltime") }
func TestGlobalRandGolden(t *testing.T)  { runGolden(t, "testdata/src/globalrand") }
func TestMapRangeGolden(t *testing.T)    { runGolden(t, "testdata/src/maprange") }
func TestIgnoreGolden(t *testing.T)      { runGolden(t, "testdata/src/ignore") }
func TestMachineFixture(t *testing.T)    { runGolden(t, "testdata/src/internal/machine") }
func TestErrDropGolden(t *testing.T)     { runGolden(t, "testdata/src/errdrop") }
func TestSharedWriteGolden(t *testing.T) { runGolden(t, "testdata/src/sharedwrite") }
func TestFloatOrderGolden(t *testing.T)  { runGolden(t, "testdata/src/floatorder") }
func TestKernelProtoGolden(t *testing.T) { runGolden(t, "testdata/src/kernelproto") }

// TestRunOnlyFilters pins the -only semantics: only selected analyzers
// fire, ignore directives naming unselected analyzers stay valid (no
// stale-directive noise in a filtered run), and an unknown name errors
// instead of silently checking nothing.
func TestRunOnlyFilters(t *testing.T) {
	pkgs := selectFixture(t, "testdata/src/ignore")

	diags, err := RunOnly(pkgs, All(), []string{"maprange"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "walltime" {
			t.Errorf("filtered run reported unselected analyzer: %v", d)
		}
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("filtered run reported a stale directive it cannot judge: %v", d)
		}
	}

	diags, err = RunOnly(pkgs, All(), []string{"walltime"})
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, d := range diags {
		if d.Analyzer == "walltime" {
			hits++
		}
	}
	if hits == 0 {
		t.Error("RunOnly(walltime) found nothing in the ignore fixture")
	}

	if _, err := RunOnly(pkgs, All(), []string{"wibble"}); err == nil {
		t.Error("RunOnly with an unknown analyzer name must error")
	}
}

// TestMachineFixtureScope pins the two properties the acceptance criteria
// name: the fixture directory resolves to an import path ending in
// internal/machine (so walltime provably rejects a time.Now() injected
// there), and the suite reports findings — which is exactly what makes
// `cclint <fixture-dir>` exit 1.
func TestMachineFixtureScope(t *testing.T) {
	pkgs := selectFixture(t, "testdata/src/internal/machine")
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !strings.HasSuffix(pkg.Path, "internal/machine") {
		t.Fatalf("fixture import path %q does not end in internal/machine", pkg.Path)
	}
	diags := Run(pkgs, All())
	if len(diags) == 0 {
		t.Fatal("fixture produced no findings; cclint would exit 0 on it")
	}
	for _, d := range diags {
		if d.Analyzer == "walltime" {
			return
		}
	}
	t.Error("no walltime finding for time.Now() injected into internal/machine")
}

// TestLoadModuleNeverLoadsTestdata: the module walk must skip testdata
// (so `cclint ./...` never trips over fixtures), must not load _test.go
// files (whose golden host-time fixtures are out of scope), and pattern
// selection must resolve only against the loaded set — naming a fixture
// directory outright selects nothing.
func TestLoadModuleNeverLoadsTestdata(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	haveLint := false
	for _, pkg := range mod.Pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("module walk loaded fixture package %s", pkg.Path)
		}
		if strings.HasSuffix(pkg.Path, "internal/lint") {
			haveLint = true
		}
		for file := range pkg.Lines {
			if strings.HasSuffix(file, "_test.go") {
				t.Errorf("loaded test file %s", file)
			}
		}
	}
	if !haveLint {
		t.Error("LoadModule(.) did not load compcache/internal/lint itself")
	}
	pkgs, err := mod.Select(".", []string{"testdata/src/walltime", "./testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 0 {
		t.Errorf("selecting testdata paths matched %d packages, want 0", len(pkgs))
	}
}

// TestLoaderHonoursBuildConstraints: the buildtag fixture declares one
// constant in two files that no build includes together. The loader must
// read only the file the default build includes (the fixture module's clean
// type check is the other half of the test).
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	pkgs := selectFixture(t, "testdata/src/buildtag")
	var files []string
	for _, f := range pkgs[0].Files {
		files = append(files, filepath.Base(pkgs[0].Fset.File(f.Pos()).Name()))
	}
	if len(files) != 1 || files[0] != "default.go" {
		t.Errorf("loaded %v, want [default.go]", files)
	}
}

// TestRunOutputSorted: diagnostics come back ordered by position so
// cclint's own output is deterministic.
func TestRunOutputSorted(t *testing.T) {
	pkgs := append(selectFixture(t, "testdata/src/walltime"), selectFixture(t, "testdata/src/errdrop")...)
	diags := Run(pkgs, All())
	if len(diags) < 2 {
		t.Fatalf("want several diagnostics to order, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

// TestRealTreeClean: the real tree has zero unignored findings under the
// full suite. (The full suite must run so ignore directives for every
// analyzer resolve; a partial suite would misread them as unknown.)
func TestRealTreeClean(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(mod.Pkgs, All()) {
		t.Errorf("unexpected finding on the real tree: %v", d)
	}
}

// BenchmarkLintModule measures full-module cclint wall time: load,
// type-check and all seven analyzers — the pass the CI wall-time
// budget gate times against .cclint-lint-budget.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := mod.Select(".", []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(pkgs, All()); len(diags) > 0 {
			b.Fatalf("tree not clean under benchmark: %d findings", len(diags))
		}
	}
}
