package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cclint drives run directly and returns its exit status and streams.
func cclint(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestListNamesTheSuite pins the suite's names and order: findings and CI
// spell them.
func TestListNamesTheSuite(t *testing.T) {
	status, out, _ := cclint(t, "-list")
	if status != 0 {
		t.Fatalf("-list exited %d, want 0", status)
	}
	want := []string{"walltime", "maprange", "kernelproto"}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, line := range lines {
		if got := strings.Fields(line)[0]; got != want[i] {
			t.Errorf("-list line %d names %q, want %q", i, got, want[i])
		}
	}
}

// scratchFiles is a three-package module: one clean, one reading the host
// clock, and one summing floats in map order.
var scratchFiles = map[string]string{
	"go.mod":           "module scratch\n\ngo 1.22\n",
	"clean/clean.go":   "package clean\n\nfunc Add(a, b int) int { return a + b }\n",
	"dirty/dirty.go":   "package dirty\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n",
	"floaty/floaty.go": "package floaty\n\nfunc Sum(m map[string]float64) (t float64) {\n\tfor _, v := range m {\n\t\tt += v\n\t}\n\treturn t\n}\n",
}

// scratchModule writes files into a new module directory and makes it the
// working directory, which is what cclint lints.
func scratchModule(t *testing.T, files map[string]string) {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestExitStatus pins the contract CI and scripts rely on: 0 clean, 1 any
// surviving finding whichever analyzer reports it, 2 a usage error.
func TestExitStatus(t *testing.T) {
	scratchModule(t, scratchFiles)

	if status, out, errs := cclint(t, "./clean"); status != 0 || out != "" {
		t.Errorf("clean package: exit %d, stdout %q, stderr %q; want 0 and no findings", status, out, errs)
	}

	status, out, _ := cclint(t, "./...")
	if status != 1 {
		t.Errorf("module with a time.Now(): exit %d, want 1", status)
	}
	if !strings.Contains(out, "dirty.go:5:") || !strings.Contains(out, "[walltime]") {
		t.Errorf("finding not reported at dirty.go:5 by walltime:\n%s", out)
	}

	// There is no advisory tier: a float sum in map order alone fails the run.
	status, out, _ = cclint(t, "./floaty")
	if status != 1 || strings.Count(out, "\n") != 1 || !strings.Contains(out, "range over a map") || !strings.Contains(out, "[maprange]") {
		t.Errorf("package with only a float sum in map order: exit %d, stdout %q; want 1 and that one maprange finding", status, out)
	}

	// Scripts still passing a flag cclint no longer has must fail loudly.
	for _, flag := range []string{"-werror", "-baseline=b.json", "-write-baseline", "-effects=e.json", "-write-effects", "-taint-report=t.json", "-only=walltime"} {
		if status, _, _ := cclint(t, flag, "./clean"); status != 2 {
			t.Errorf("retired flag %s: exit %d, want 2", flag, status)
		}
	}
}

// TestJSONCleanTreeIsEmptyArray: CI diffs this output against "[]", so a
// clean tree must not print null.
func TestJSONCleanTreeIsEmptyArray(t *testing.T) {
	scratchModule(t, scratchFiles)
	status, out, _ := cclint(t, "-json", "./clean")
	if status != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("-json on a clean package: exit %d, stdout %q; want 0 and []", status, out)
	}
}

// TestTypeErrorFailsTheRun: a tree the compiler rejects is a load error,
// exit 2 naming the error, even when the selected package is clean — no
// analyzer ever runs on a module that did not type-check.
func TestTypeErrorFailsTheRun(t *testing.T) {
	scratchModule(t, map[string]string{
		"go.mod":           "module scratch\n\ngo 1.22\n",
		"clean/clean.go":   "package clean\n\nfunc Add(a, b int) int { return a + b }\n",
		"broken/broken.go": "package broken\n\nfunc Name() string { return 1 }\n",
	})
	status, out, errs := cclint(t, "./clean")
	if status != 2 || out != "" || !strings.Contains(errs, "broken.go:3:") || !strings.Contains(errs, "cannot use 1") {
		t.Errorf("module with a type error: exit %d, stdout %q, stderr %q; want 2 naming broken.go:3", status, out, errs)
	}
}
