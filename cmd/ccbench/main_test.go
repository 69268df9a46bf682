package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compcache/internal/exp"
)

// ccbench drives run directly and returns its exit status and streams.
func ccbench(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestListPrintsTheRegistry: -list is exp.Names(), one per line.
func TestListPrintsTheRegistry(t *testing.T) {
	status, out, errs := ccbench(t, "-list")
	if status != 0 || errs != "" {
		t.Fatalf("-list exited %d with stderr %q, want 0 and silence", status, errs)
	}
	if want := strings.Join(exp.Names(), "\n") + "\n"; out != want {
		t.Errorf("-list printed\n%s\nwant\n%s", out, want)
	}
}

// TestUsageErrorsExitTwo: a bad -scale, -format or -run value, or a
// retired flag, prints nothing on stdout, names the offender on stderr and
// exits 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"-format", "xml"}, `unknown format "xml"`},
		{[]string{"-run", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-run", ","}, `nothing selected by ","`},
		{[]string{"-j", "many"}, `invalid value "many"`},
		{[]string{"-exp", "fig1a"}, "flag provided but not defined: -exp"},
		{[]string{"-faults"}, "flag provided but not defined: -faults"},
		{[]string{"-host-timing"}, "flag provided but not defined: -host-timing"},
		{[]string{"-fault-rate", "1e-3"}, "flag provided but not defined: -fault-rate"},
		{[]string{"-trace", "x"}, "flag provided but not defined: -trace"},
	} {
		status, out, errs := ccbench(t, c.args...)
		if status != 2 || out != "" || !strings.Contains(errs, c.want) {
			t.Errorf("ccbench %v: exit %d, stdout %q, stderr %q; want 2, no output and %q", c.args, status, out, errs, c.want)
		}
	}
}

// TestRunCSVIsTheSameAtAnyJ: an experiment's CSV opens with its title, and
// a serial run prints the same bytes as one at the default -j.
func TestRunCSVIsTheSameAtAnyJ(t *testing.T) {
	status, first, errs := ccbench(t, "-run", "fig1a", "-format", "csv")
	if status != 0 || errs != "" {
		t.Fatalf("-run fig1a: exit %d, stderr %q; want 0 and silence", status, errs)
	}
	if !strings.HasPrefix(first, "# Figure 1(a)") {
		t.Errorf("CSV output does not open with the table title:\n%.80s", first)
	}
	if _, second, _ := ccbench(t, "-run", "fig1a", "-format", "csv", "-j", "1"); first != second {
		t.Errorf("-j 1 output differs from the default -j:\n%s\nvs\n%s", second, first)
	}
}

// TestCPUProfileIsWritten: -cpuprofile leaves a gzipped profile behind and
// changes nothing else; a profile that cannot be created fails the run.
func TestCPUProfileIsWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	status, out, errs := ccbench(t, "-run", "fig1a", "-cpuprofile", path)
	if status != 0 || errs != "" || !strings.Contains(out, "Figure 1(a)") {
		t.Fatalf("-cpuprofile: exit %d, stderr %q, stdout %.80q", status, errs, out)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile: %d bytes, %v; want a non-empty gzipped profile", len(b), err)
	}
	status, _, errs = ccbench(t, "-run", "fig1a", "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pprof"))
	if status != 1 || !strings.Contains(errs, "cpu.pprof") {
		t.Errorf("unwritable profile: exit %d, stderr %q; want 1 and the path", status, errs)
	}
}
