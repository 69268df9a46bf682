package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compcache/internal/compress"
)

// cczip drives run directly and returns its exit status and streams.
func cczip(t *testing.T, stdin []byte, args ...string) (status int, stdout []byte, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, bytes.NewReader(stdin), &out, &errb)
	return status, out.Bytes(), errb.String()
}

// input is two and a half 4-KB blocks: text, noise, and a short zero tail.
func input() []byte {
	in := bytes.Repeat([]byte("the compression cache extends physical memory "), 90)[:4096]
	noise := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(noise)
	return append(append(in, noise...), make([]byte, 2048)...)
}

// TestRoundTripEveryCodec: compressing and then decompressing with the same
// codec gives the input back, across block boundaries and a short last block.
func TestRoundTripEveryCodec(t *testing.T) {
	in := input()
	for _, name := range compress.Names() {
		status, packed, errs := cczip(t, in, "-codec", name)
		if status != 0 || !strings.HasPrefix(errs, "cczip: 10240 -> ") {
			t.Fatalf("%s: compress exited %d, stderr %q", name, status, errs)
		}
		status, out, errs := cczip(t, packed, "-d", "-codec", name)
		if status != 0 || errs != "" {
			t.Fatalf("%s: decompress exited %d, stderr %q", name, status, errs)
		}
		if !bytes.Equal(out, in) {
			t.Errorf("%s: round trip turned %d bytes into %d different ones", name, len(in), len(out))
		}
	}
}

// TestStatsReportsPerPageOutcome: one of the file's three pages is noise and
// fails the 4:3 threshold.
func TestStatsReportsPerPageOutcome(t *testing.T) {
	name := filepath.Join(t.TempDir(), "pages.bin")
	if err := os.WriteFile(name, input(), 0o644); err != nil {
		t.Fatal(err)
	}
	status, out, errs := cczip(t, nil, "-stats", name)
	if status != 0 || errs != "" {
		t.Fatalf("-stats exited %d, stderr %q", status, errs)
	}
	if got := string(out); !strings.HasPrefix(got, name+": 3 pages, ratio 0.") || !strings.Contains(got, "(33.3% fail the 4:3 retention threshold)") {
		t.Errorf("-stats printed %q", got)
	}
	if status, _, errs := cczip(t, nil, "-stats", name+".missing"); status != 1 || !strings.HasPrefix(errs, "cczip: ") {
		t.Errorf("-stats on a missing file: exit %d, stderr %q; want 1 and a message", status, errs)
	}
}

// TestBadInputExitsOne pins what scripts see when the codec or the stream is
// wrong: a message on stderr and exit 1; a bad flag is a usage error, exit 2.
func TestBadInputExitsOne(t *testing.T) {
	if status, _, errs := cczip(t, nil, "-codec", "wibble"); status != 1 || !strings.Contains(errs, `unknown codec "wibble"`) {
		t.Errorf("unknown codec: exit %d, stderr %q; want 1 naming the codec", status, errs)
	}
	_, packed, _ := cczip(t, input())
	for _, cut := range []int{1, len(packed) - 1} {
		status, _, errs := cczip(t, packed[:cut], "-d")
		if status != 1 || !strings.Contains(errs, "truncated stream") {
			t.Errorf("stream cut to %d of %d bytes: exit %d, stderr %q; want 1 and a truncation message", cut, len(packed), status, errs)
		}
	}
	if status, _, _ := cczip(t, nil, "-wibble"); status != 2 {
		t.Errorf("unknown flag: exit %d, want 2", status)
	}
}
