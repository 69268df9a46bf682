package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests are a hand-rolled, stdlib-only analysistest: the whole
// of testdata/src is mounted once as a pretend module named "compcache"
// (so fixture packages get import paths like "compcache/kernelproto/internal/sim"
// and can import each other), each fixture subtree is selected, the full analyzer suite
// runs over it, and every diagnostic must
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

// parseWants scans a package's source files for want comments.
func parseWants(t *testing.T, pkg *Package) map[string]map[int][]*want {
	t.Helper()
	wants := map[string]map[int][]*want{}
	for _, f := range pkg.Files {
		file := pkg.Fset.File(f.Pos()).Name()
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
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

	diags := Run(pkgs)
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
func TestMachineFixture(t *testing.T)    { runGolden(t, "testdata/src/internal/machine") }
func TestKernelProtoGolden(t *testing.T) { runGolden(t, "testdata/src/kernelproto") }

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
	diags := Run(pkgs)
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
		for _, f := range pkg.Files {
			if file := pkg.Fset.File(f.Pos()).Name(); strings.HasSuffix(file, "_test.go") {
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

// TestLoadTreeRefusesWhatGoBuildRefuses: a package that does not
// type-check and an import the toolchain has no export data for are load
// errors naming the cause, never a module with holes in its type facts.
func TestLoadTreeRefusesWhatGoBuildRefuses(t *testing.T) {
	for name, tc := range map[string]struct{ src, want string }{
		"type error":     {"package p\n\nfunc Name() string { return 1 }\n", "p.go:3:"},
		"unknown import": {"package p\n\nimport _ \"nosuch/pkg\"\n", "nosuch/pkg"},
	} {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "p.go"), []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTree(root, "scratch"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadTree error %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestRunOutputSorted: diagnostics come back ordered by position so
// cclint's own output is deterministic.
func TestRunOutputSorted(t *testing.T) {
	pkgs := append(selectFixture(t, "testdata/src/walltime"), selectFixture(t, "testdata/src/maprange")...)
	diags := Run(pkgs)
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

// TestRealTreeClean: the real tree has no findings.
func TestRealTreeClean(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(mod.Pkgs) {
		t.Errorf("unexpected finding on the real tree: %v", d)
	}
}

// BenchmarkLintModule measures full-module cclint wall time: load,
// type-check and the whole suite — the pass the CI wall-time
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
		if diags := Run(pkgs); len(diags) > 0 {
			b.Fatalf("tree not clean under benchmark: %d findings", len(diags))
		}
	}
}
