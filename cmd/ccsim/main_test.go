package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/trace"
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

// TestClassesNoneTracesNothing: -classes none records no event in any view,
// and -classes all is the default, byte for byte.
func TestClassesNoneTracesNothing(t *testing.T) {
	views := []string{"-cc", "-summary", "-events", "-"}
	status, none, errs := ccsim(append(views, "-classes", "none")...)
	if status != 0 || errs != "" {
		t.Fatalf("-classes none exited %d, stderr %q", status, errs)
	}
	_, after, ok := strings.Cut(none, "\n  device          135.41175ms   0.8%\n")
	if !ok || !strings.HasPrefix(after, "events by class (0 retained):\nmetrics:\n") {
		t.Errorf("-classes none: the views after the breakdown are not empty of events:\n%.600s", after)
	}
	status, all, errs := ccsim(append(views, "-classes", "all")...)
	if status != 0 || errs != "" {
		t.Fatalf("-classes all exited %d, stderr %q", status, errs)
	}
	if !strings.Contains(all, "events by class (13105 retained):\nfault        3072\n") {
		t.Errorf("-classes all does not retain every event:\n%.1500s", all)
	}
	if _, def, _ := ccsim(views...); def != all {
		t.Error("the default -classes differs from -classes all")
	}
}

// recordTrace records the 4-MB read-write thrasher on a 2-MB machine
// configured by args and returns the trace's path.
func recordTrace(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.cct")
	status, out, errs := ccsim(append([]string{"-record", path, "-workload", "thrasher_rw"}, args...)...)
	if want := fmt.Sprintf("recorded 5120 references (46092 bytes) from thrasher_rw to %s\n", path); status != 0 || errs != "" || !strings.HasSuffix(out, want) {
		t.Fatalf("-record %v exited %d, stderr %q, stdout\n%s\nwant 0 and a last line %q", args, status, errs, out, want)
	}
	return path
}

// TestRecordInfoReplay is the trace-driven workflow end to end: record, look
// at the trace, replay it on the compression-cache machine. Everything the
// replay prints is virtual and seeded, so the whole of it — statistics, where
// the time went, event counts and metrics — is compared with the checked-in
// output.
func TestRecordInfoReplay(t *testing.T) {
	path := recordTrace(t)

	status, out, errs := ccsim("-info", path)
	if want := path + ": 5120 references, 1 segment(s), 60.0% writes\n  segment 0: 1024 pages (4.0 MB)\n"; status != 0 || errs != "" || out != want {
		t.Errorf("-info exited %d, stdout %q, stderr %q; want 0 and %q", status, out, errs, want)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "replay_cc_summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	status, out, errs = ccsim("-replay", path, "-cc", "-summary")
	if status != 0 || errs != "" {
		t.Fatalf("-replay -cc -summary exited %d, stderr %q", status, errs)
	}
	if out != string(golden) {
		t.Errorf("-replay -cc -summary printed\n%s\nwant\n%s", out, golden)
	}
}

// TestRecordingIsTheWorkloads: the trace holds the workload's references, so
// the compression-cache machine under another codec records the baseline's
// bytes, and a crashed run records what it made before the cut.
func TestRecordingIsTheWorkloads(t *testing.T) {
	base, err := os.ReadFile(recordTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if cc, err := os.ReadFile(recordTrace(t, "-cc", "-codec", "fpc")); err != nil || !bytes.Equal(cc, base) {
		t.Errorf("-cc -codec fpc recorded %d bytes (%v) unlike the baseline's %d", len(cc), err, len(base))
	}

	path := filepath.Join(t.TempDir(), "crash.cct")
	status, out, errs := ccsim("-record", path, "-cc", "-crash-at-write", "20")
	if want := fmt.Sprintf("\nrecorded 1001 references (9021 bytes) from thrasher_rw to %s\n", path); status != 0 || errs != "" || !strings.HasSuffix(out, want) {
		t.Errorf("crash -record exited %d, stderr %q, stdout\n%s\nwant a last line %q", status, errs, out, want)
	}
}

// TestEventsToStdoutIsJSONL: after the statistics block and the breakdown,
// every line of `-events -` is one JSON object, and there are as many as the
// summary counts; `-events file` puts the same bytes in the file and says how
// many.
func TestEventsToStdoutIsJSONL(t *testing.T) {
	trace := recordTrace(t)
	status, out, errs := ccsim("-replay", trace, "-cc", "-events", "-")
	if status != 0 || errs != "" {
		t.Fatalf("exited %d, stderr %q", status, errs)
	}
	_, events, ok := strings.Cut(out, "\n  decompress        6.291456s  30.5%\n")
	if !ok {
		t.Fatalf("no statistics block and breakdown ahead of the events:\n%.1200s", out)
	}
	lines := strings.Split(strings.TrimSuffix(events, "\n"), "\n")
	for i, line := range lines {
		var ev struct {
			T     *int64
			Class string
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.T == nil || ev.Class == "" {
			t.Fatalf("event line %d is not an event: %q (%v)", i, line, err)
		}
	}
	if len(lines) != 18239 {
		t.Errorf("%d events exported, want the 18239 the summary retains", len(lines))
	}

	file := filepath.Join(t.TempDir(), "run.jsonl")
	status, out, errs = ccsim("-replay", trace, "-cc", "-events", file)
	if want := fmt.Sprintf("wrote 18239 event(s) to %s\n", file); status != 0 || errs != "" || !strings.HasSuffix(out, want) {
		t.Fatalf("-events file exited %d, stderr %q, stdout ending %q", status, errs, out[max(0, len(out)-80):])
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != events {
		t.Errorf("the file holds %d bytes (%v), stdout carried %d", len(got), err, len(events))
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

// TestTraceFailuresExitOneWithAMessage: a recording of a workload that does
// not exist, a trace that is not there, one cut off mid-reference, and one
// naming a negative page.
func TestTraceFailuresExitOneWithAMessage(t *testing.T) {
	dir := t.TempDir()
	recorded, err := os.ReadFile(recordTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.cct")
	if err := os.WriteFile(cut, recorded[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	rec.Note(0, 3, false)
	rec.Note(0, -2, true)
	var negative bytes.Buffer
	if _, err := rec.WriteTo(&negative); err != nil {
		t.Fatal(err)
	}
	neg := filepath.Join(dir, "negative.cct")
	if err := os.WriteFile(neg, negative.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.cct")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-record", filepath.Join(dir, "x.cct"), "-workload", "bogus"}, "ccsim: unknown workload \"bogus\"\n"},
		{[]string{"-replay", missing}, "ccsim: open " + missing + ": no such file or directory\n"},
		{[]string{"-info", missing}, "ccsim: open " + missing + ": no such file or directory\n"},
		{[]string{"-replay", cut}, "ccsim: " + cut + ": trace: truncated at reference 9: unexpected EOF\n"},
		{[]string{"-info", cut}, "ccsim: " + cut + ": trace: truncated at reference 9: unexpected EOF\n"},
		{[]string{"-info", neg}, "ccsim: " + neg + ": trace: reference 1 names segment 0 page -2; ids are never negative\n"},
		{[]string{"-replay", neg}, "ccsim: workload replay: trace: reference 1 names segment 0 page -2; ids are never negative\n"},
	} {
		if status, out, errs := ccsim(tc.args...); status != 1 || out != "" || errs != tc.want {
			t.Errorf("%v: exited %d, stdout %q, stderr %q; want 1 and %q", tc.args, status, out, errs, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.cct")); !os.IsNotExist(err) {
		t.Errorf("a run that never started left a trace file (%v)", err)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if status, _, errs := ccsim("-mem", "lots"); status != 2 || !strings.Contains(errs, "invalid value") {
		t.Errorf("exited %d, stderr %q", status, errs)
	}
}

// TestUsageErrorsExitTwo: a flag that does not exist and trace and recovery
// flags whose values do not parse are usage errors, and nothing runs.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-ring", "many"}, "invalid value"},
		{[]string{"-crash-at-write", "-1"}, "invalid value"},
		{[]string{"-replay"}, "flag needs an argument: -replay"},
	} {
		if status, out, errs := ccsim(tc.args...); status != 2 || out != "" || !strings.Contains(errs, tc.want) {
			t.Errorf("%v: exited %d, stdout %q, stderr %q; want 2 and %q", tc.args, status, out, errs, tc.want)
		}
	}
}

// TestHelpNamesEveryCodec: -codec's help is the registry, not a list kept by
// hand.
func TestHelpNamesEveryCodec(t *testing.T) {
	status, out, errs := ccsim("-h")
	if status != 0 || out != "" {
		t.Fatalf("-h exited %d, stdout %q", status, out)
	}
	want := "compression codec (" + strings.Join(compress.Names(), ", ") + ")"
	if !strings.Contains(errs, want) {
		t.Errorf("-h does not offer %q:\n%s", want, errs)
	}
}
