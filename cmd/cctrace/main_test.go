package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compcache/internal/trace"
)

// cctrace drives run directly and returns its exit status and streams.
func cctrace(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// recordTrace records the 4-MB read-write thrasher on a 2-MB machine — small
// enough to page within a second — and returns the trace's path.
func recordTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.cct")
	status, out, errs := cctrace("-record", path, "-workload", "thrasher_rw", "-size", "4", "-mem", "2")
	if want := fmt.Sprintf("recorded 5120 references (46092 bytes) from thrasher_rw to %s\n", path); status != 0 || errs != "" || out != want {
		t.Fatalf("-record exited %d, stdout %q, stderr %q; want 0 and %q", status, out, errs, want)
	}
	return path
}

// TestRecordInfoReplay is the trace-driven workflow end to end: record, look
// at the trace, replay it on the compression-cache machine. Everything the
// replay prints is virtual and seeded, so the whole of it — statistics, event
// counts, metrics, and where the time went — is compared with the checked-in
// output.
func TestRecordInfoReplay(t *testing.T) {
	path := recordTrace(t)

	status, out, errs := cctrace("-info", path)
	if want := path + ": 5120 references, 1 segment(s), 60.0% writes\n  segment 0: 1024 pages (4.0 MB)\n"; status != 0 || errs != "" || out != want {
		t.Errorf("-info exited %d, stdout %q, stderr %q; want 0 and %q", status, out, errs, want)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "replay_cc_summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	status, out, errs = cctrace("-replay", path, "-mem", "2", "-cc", "-summary")
	if status != 0 || errs != "" {
		t.Fatalf("-replay -cc -summary exited %d, stderr %q", status, errs)
	}
	if out != string(golden) {
		t.Errorf("-replay -cc -summary printed\n%s\nwant\n%s", out, golden)
	}
}

// TestEventsToStdoutIsJSONL: after the statistics block, every line of
// `-events -` is one JSON object, and there are as many as the summary counts;
// `-events file` puts the same bytes in the file and says how many.
func TestEventsToStdoutIsJSONL(t *testing.T) {
	trace := recordTrace(t)
	status, out, errs := cctrace("-replay", trace, "-mem", "2", "-cc", "-events", "-")
	if status != 0 || errs != "" {
		t.Fatalf("exited %d, stderr %q", status, errs)
	}
	_, events, ok := strings.Cut(out, "\nswap            21 pages out / 0 pages in, 1 GCs\n")
	if !ok {
		t.Fatalf("no statistics block ahead of the events:\n%.400s", out)
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
	status, out, errs = cctrace("-replay", trace, "-mem", "2", "-cc", "-events", file)
	if want := fmt.Sprintf("wrote 18239 event(s) to %s\n", file); status != 0 || errs != "" || !strings.HasSuffix(out, want) {
		t.Fatalf("-events file exited %d, stderr %q, stdout ending %q", status, errs, out[max(0, len(out)-80):])
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != events {
		t.Errorf("the file holds %d bytes (%v), stdout carried %d", len(got), err, len(events))
	}
}

// TestFailuresExitOneWithAMessage: a workload that does not exist, a trace
// that is not there, one cut off mid-reference, and one naming a negative
// page.
func TestFailuresExitOneWithAMessage(t *testing.T) {
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
		{[]string{"-record", filepath.Join(dir, "x.cct"), "-workload", "bogus"}, "cctrace: unknown workload \"bogus\"\n"},
		{[]string{"-replay", missing}, "cctrace: open " + missing + ": no such file or directory\n"},
		{[]string{"-info", missing}, "cctrace: open " + missing + ": no such file or directory\n"},
		{[]string{"-replay", cut}, "cctrace: " + cut + ": trace: truncated at reference 9: unexpected EOF\n"},
		{[]string{"-info", cut}, "cctrace: " + cut + ": trace: truncated at reference 9: unexpected EOF\n"},
		{[]string{"-info", neg}, "cctrace: " + neg + ": trace: reference 1 names segment 0 page -2; ids are never negative\n"},
		{[]string{"-replay", neg}, "cctrace: workload replay: trace: reference 1 names segment 0 page -2; ids are never negative\n"},
	} {
		if status, out, errs := cctrace(tc.args...); status != 1 || out != "" || errs != tc.want {
			t.Errorf("%v: exited %d, stdout %q, stderr %q; want 1 and %q", tc.args, status, out, errs, tc.want)
		}
	}
}

// TestUsageErrorsExitTwo: a flag that does not parse, and no mode at all.
func TestUsageErrorsExitTwo(t *testing.T) {
	if status, _, errs := cctrace("-mem", "lots"); status != 2 || !strings.Contains(errs, "invalid value") {
		t.Errorf("bad flag: exited %d, stderr %q", status, errs)
	}
	if status, out, errs := cctrace(); status != 2 || out != "" || errs != "cctrace: one of -record, -replay or -info is required\n" {
		t.Errorf("no mode: exited %d, stdout %q, stderr %q", status, out, errs)
	}
}
