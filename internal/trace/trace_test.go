package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"
)

// Collect drains a generator into a slice.
func Collect(g Generator) []Ref {
	var refs []Ref
	for {
		r, done := g.Next()
		if done {
			return refs
		}
		refs = append(refs, r)
	}
}

func TestZipfSkewsPopularity(t *testing.T) {
	refs := Collect(&Zipf{N: 10000, Range: 10000, Skew: 1.5, Seed: 2})
	counts := map[uint64]int{}
	for _, r := range refs {
		counts[r.Addr]++
	}
	// The most popular address should dominate a uniform expectation (1 ref
	// per address).
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 100 {
		t.Fatalf("zipf max popularity = %d, want heavy skew", maxCount)
	}
}

func TestStridedStaysInPartition(t *testing.T) {
	g := &Strided{N: 4000, Range: 4096, Stride: 8, CPUs: 4, Seed: 3}
	part := uint64(1024)
	for {
		r, done := g.Next()
		if done {
			break
		}
		lo := uint64(r.CPU) * part
		if r.Addr < lo || r.Addr >= lo+part {
			t.Fatalf("cpu %d touched addr %d outside [%d,%d)", r.CPU, r.Addr, lo, lo+part)
		}
	}
}

func TestMixDrainsAll(t *testing.T) {
	m := &Mix{Gens: []Generator{
		&Strided{N: 10, Range: 8, Seed: 1},
		&Strided{N: 25, Range: 8, Seed: 2},
	}}
	refs := Collect(m)
	if len(refs) != 35 {
		t.Fatalf("mix produced %d refs, want 35", len(refs))
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	var rec Recorder
	rec.Note(0, 5, false)
	rec.Note(1, 9, true)
	rec.Note(0, 5, false)
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != (PageRef{Seg: 1, Page: 9, Write: true}) {
		t.Fatalf("round trip mismatch: %v", got)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := [][]byte{
		nil,                // empty
		[]byte("xxxx"),     // bad magic
		[]byte("cct1\x01"), // short count
		append([]byte("cct1"), make([]byte, 8)...), // count 0, ok actually
	}
	if _, err := ReadTrace(bytes.NewReader(cases[0])); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(cases[1])); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(cases[2])); err == nil {
		t.Error("short count accepted")
	}
	if refs, err := ReadTrace(bytes.NewReader(cases[3])); err != nil || len(refs) != 0 {
		t.Errorf("empty trace should parse: %v %v", refs, err)
	}
	// Truncated body.
	var rec Recorder
	rec.Note(0, 1, false)
	var buf bytes.Buffer
	rec.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body accepted")
	}
	// Implausible count.
	big := append([]byte("cct1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := ReadTrace(bytes.NewReader(big)); err == nil {
		t.Error("implausible count accepted")
	}
}

// TestTraceFileBytesPinned pins the trace file format: a change to what
// WriteTo writes orphans every recorded trace.
func TestTraceFileBytesPinned(t *testing.T) {
	var rec Recorder
	for i := int32(0); i < 6; i++ {
		rec.Note(i%3, 1000*i-1, i%2 == 1)
	}
	rec.Note(-1, 1<<30, true)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "972c9df9b8b9476c96b3e7c6c4130884b4c606160474b868eedb52c9e09378e3"; got != want {
		t.Fatalf("trace file sha256 = %s, want %s", got, want)
	}
}

// TestForgedTraceCountAllocatesNothing: a header claiming 1<<24 references
// with none behind it is refused before anything is sized by the claim.
func TestForgedTraceCountAllocatesNothing(t *testing.T) {
	forged := binary.LittleEndian.AppendUint64([]byte("cct1"), 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a forged count was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("refusing a forged count allocated %d bytes", n)
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes: it must not panic, and a
// trace it accepts must write back as a trace that reads the same.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		rec := Recorder{Refs: refs}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("an accepted trace does not read back: %v", err)
		}
		if !slices.Equal(again, refs) {
			t.Fatalf("read back %v, want %v", again, refs)
		}
	})
}
