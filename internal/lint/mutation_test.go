package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Mutation tests guard against analyzers silently going blind: each test
// copies a golden fixture subtree into a scratch module, runs the full
// suite to get a baseline, injects one regression a real patch could
// introduce, and asserts the re-run reports exactly the expected new
// finding — no more, no less. A golden test alone cannot catch an
// analyzer that stops firing on shapes nobody has written yet; the
// mutant is that shape.

// copyFixtureTree copies testdata/src/<name> into root/<name>, so a
// LoadTree(root, "compcache") resolves the fixture's own import paths.
func copyFixtureTree(t *testing.T, root, name string) {
	t.Helper()
	src := filepath.Join("testdata", "src", name)
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, name, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying fixture %s: %v", name, err)
	}
}

// mutateFile applies one exact string replacement, failing if the
// anchor text is missing (a drifted fixture would silently test nothing).
func mutateFile(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("mutation anchor %q not found in %s", old, path)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lintTree loads a scratch module and runs the full suite over it.
func lintTree(t *testing.T, root string) []Diagnostic {
	t.Helper()
	mod, err := LoadTree(root, "compcache")
	if err != nil {
		t.Fatalf("LoadTree(%s): %v", root, err)
	}
	return Run(mod.Pkgs)
}

// diagKeys folds diagnostics to analyzer+message multisets; mutations
// shift line numbers, so positions cannot key the diff.
func diagKeys(diags []Diagnostic) map[string]int {
	keys := make(map[string]int)
	for _, d := range diags {
		keys[d.Analyzer+": "+d.Message]++
	}
	return keys
}

// assertExactlyNew asserts the mutant run reports precisely the expected
// additional findings over the baseline, and loses none.
func assertExactlyNew(t *testing.T, base, got []Diagnostic, wantNew []string) {
	t.Helper()
	baseKeys, gotKeys := diagKeys(base), diagKeys(got)
	for _, w := range wantNew {
		gotKeys[w]--
	}
	for k, n := range gotKeys {
		switch {
		case n > baseKeys[k]:
			t.Errorf("mutant produced unexpected extra finding: %s", k)
		case n < baseKeys[k]:
			t.Errorf("mutant lost or double-counted finding: %s", k)
		}
	}
	for k, n := range baseKeys {
		if _, ok := gotKeys[k]; !ok && n > 0 {
			t.Errorf("mutant lost baseline finding: %s", k)
		}
	}
}

// mutateFixture runs one mutation test: copy the fixture subtree that
// file (a path under testdata/src) belongs to, lint it, apply the
// replacement to file, lint again, and demand exactly the named new
// findings.
func mutateFixture(t *testing.T, file, old, new string, wantNew ...string) {
	t.Helper()
	root := t.TempDir()
	fixture, _, _ := strings.Cut(file, "/")
	copyFixtureTree(t, root, fixture)
	base := lintTree(t, root)
	mutateFile(t, filepath.Join(root, filepath.FromSlash(file)), old, new)
	assertExactlyNew(t, base, lintTree(t, root), wantNew)
}

// kpMessage is the kernelproto finding for one primitive.
func kpMessage(what string) string {
	return "kernelproto: " + what + " outside internal/runner; only the runner fan-out may touch the host scheduler"
}

// TestKernelProtoMutationRawGoroutine: a raw go statement slipped into
// the clean actor body must be reported.
func TestKernelProtoMutationRawGoroutine(t *testing.T) {
	mutateFixture(t, "kernelproto/kernelproto.go",
		"buf := pool.Get().([]byte)",
		"buf := pool.Get().([]byte)\n\t\tgo func() { _ = buf }()",
		kpMessage("spawns a raw goroutine"))
}

// TestKernelProtoMutationSimIsScanned: the kernel runs its actors as
// coroutines, so internal/sim is exempt from nothing — a goroutine slipped
// into the stand-in kernel is a finding like any other.
func TestKernelProtoMutationSimIsScanned(t *testing.T) {
	mutateFixture(t, "kernelproto/internal/sim/sim.go",
		"\t\tk.events++",
		"\t\tk.events++\n\t\tgo fn()",
		kpMessage("spawns a raw goroutine"))
}

// TestKernelProtoMutationFuncValueHook: a lock taken inside a closure that is
// stored in a hook and only ever called through the func value — the shape
// the cleaner's flush closure and vm's frame source have in the real tree,
// and the one a call graph that drops func-value calls cannot see.
func TestKernelProtoMutationFuncValueHook(t *testing.T) {
	mutateFixture(t, "kernelproto/kernelproto.go",
		"func Build(c *Cache) {\n\tc.SetHooks(func(n int) {",
		"func Build(c *Cache) {\n\tvar mu sync.Mutex\n\tc.SetHooks(func(n int) {\n\t\tmu.Lock()",
		kpMessage("takes sync.Mutex.Lock"))
}

// TestWalltimeMutationRenamedImport: a host-clock read through the
// renamed import, slipped into the clean function, is one new finding —
// the callee is time.Now whatever the file calls the package.
func TestWalltimeMutationRenamedImport(t *testing.T) {
	mutateFixture(t, "walltime/walltime.go",
		"d := 50 * time.Microsecond",
		"d := 50 * time.Microsecond\n\t_ = wall.Now()",
		"walltime: wall-clock call time.Now contaminates virtual-time measurements; advance the sim clock instead")
}

// TestMapRangeMutationDeletedSort: the collect-then-sort idiom without its
// sort is a plain map-order append.
func TestMapRangeMutationDeletedSort(t *testing.T) {
	mutateFixture(t, "maprange/maprange.go",
		"\tsort.Strings(keys)\n\treturn keys", "\treturn keys",
		"maprange: append inside map iteration captures random map order; collect and sort keys first")
}

// TestMapRangeMutationReusedSliceMiddleSort: a slice reused for three maps
// loses the sort after its middle loop; the sorts after the other two loops
// do not excuse it (the obs.Registry.Snapshot shape).
func TestMapRangeMutationReusedSliceMiddleSort(t *testing.T) {
	mutateFixture(t, "maprange/maprange.go",
		"\tsort.Strings(names)\n\ty = slices.Clone(names)", "\ty = slices.Clone(names)",
		"maprange: append inside map iteration captures random map order; collect and sort keys first")
}

// TestGlobalRandMutationDroppedSeed: delete the seeded local that shadows
// the package name and the very same spelling, rand.Intn(4), becomes the
// process-global source, which is host state like the clock.
func TestGlobalRandMutationDroppedSeed(t *testing.T) {
	mutateFixture(t, "globalrand/globalrand.go",
		"\trand := rand.New(rand.NewSource(seed))\n", "",
		"walltime: rand.Intn uses the process-global source; thread a seeded *rand.Rand instead")
}

// TestFloatOrderMutationMovedIntoMapRange: the sorted-keys reduction run
// over the map itself sums in iteration order.
func TestFloatOrderMutationMovedIntoMapRange(t *testing.T) {
	mutateFixture(t, "maprange/floatsum.go",
		"\tfor _, k := range keys {\n\t\ttotal += m[k]", "\tfor k := range m {\n\t\ttotal += m[k]",
		"maprange: float accumulation inside map iteration; map order is random per run — sort the keys first")
}

// TestRunDeterministic: cclint's own output is a byte-identical artifact.
// Five fresh loads of the whole fixture module, full suite each time, must
// produce deep-equal diagnostics — positions, order and messages.
func TestRunDeterministic(t *testing.T) {
	first := lintTree(t, filepath.Join("testdata", "src"))
	if len(first) == 0 {
		t.Fatal("fixture module produced no findings")
	}
	for i := 1; i < 5; i++ {
		if again := lintTree(t, filepath.Join("testdata", "src")); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs from run 0:\n%v\nvs\n%v", i, again, first)
		}
	}
}
