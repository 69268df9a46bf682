package main

import (
	"bytes"
	"strings"
	"testing"
)

// ccsim drives run directly, on a machine small enough to page within a
// second, and returns its exit status and streams.
func ccsim(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(append([]string{"-mem", "2", "-size", "4"}, args...), &out, &errb)
	return status, out.String(), errb.String()
}

// TestPlainRunPrintsTheStatisticsBlock: the baseline pages through its swap
// file and says so, and the breakdown after the block says what that cost.
func TestPlainRunPrintsTheStatisticsBlock(t *testing.T) {
	status, out, errs := ccsim()
	if status != 0 || errs != "" {
		t.Fatalf("exited %d, stderr %q", status, errs)
	}
	for _, want := range []string{"workload thrasher_rw on 2 MB, baseline (no compression cache)", "swap-in 2048", "2560 pages out / 2048 pages in",
		"\nwhere the time went (1m53.736832s virtual):\n  reference ", "  device         1m51.789952s  98.3%\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestCrashRebootVerifies: a power cut at the 20th device write, a reboot
// from the torn media and the recovery check, on the clustered store and on
// the durable LFS the baseline pages into when a crash is asked for.
func TestCrashRebootVerifies(t *testing.T) {
	for _, args := range [][]string{{"-cc", "-crash-at-write", "20"}, {"-crash-at-write", "20"}} {
		status, out, errs := ccsim(args...)
		if status != 0 || errs != "" {
			t.Fatalf("%v: exited %d, stderr %q", args, status, errs)
		}
		if !strings.Contains(out, "power cut at device write 20, ") || !strings.Contains(out, "\nreboot: scanned ") ||
			!strings.HasSuffix(out, "\nrecovery verified: no acknowledged-durable page lost, no torn fragment served\n") {
			t.Errorf("%v: no verified recovery in:\n%s", args, out)
		}
	}
}

// TestFailuresExitOneWithAMessage: a crash point the run never reaches and a
// workload that does not exist.
func TestFailuresExitOneWithAMessage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-crash-at-write", "1000000"}, "ccsim: the run finished before device write 1000000; crash earlier\n"},
		{[]string{"-workload", "bogus"}, "ccsim: unknown workload \"bogus\"\n"},
	} {
		if status, out, errs := ccsim(tc.args...); status != 1 || out != "" || errs != tc.want {
			t.Errorf("%v: exited %d, stdout %q, stderr %q", tc.args, status, out, errs)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if status, _, errs := ccsim("-mem", "lots"); status != 2 || !strings.Contains(errs, "invalid value") {
		t.Errorf("exited %d, stderr %q", status, errs)
	}
}
