package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		cs = append(cs, c)
	}
	if len(cs) < 4 {
		t.Fatalf("expected at least 4 registered codecs, got %v", Names())
	}
	return cs
}

func roundTrip(t *testing.T, c Codec, src []byte) []byte {
	t.Helper()
	comp := c.Compress(nil, src)
	if len(comp) > c.MaxCompressedSize(len(src)) {
		t.Fatalf("%s: compressed %d bytes to %d, exceeds bound %d",
			c.Name(), len(src), len(comp), c.MaxCompressedSize(len(src)))
	}
	out, err := c.Decompress(nil, comp)
	if err != nil {
		t.Fatalf("%s: Decompress: %v", c.Name(), err)
	}
	if !bytes.Equal(out, src) {
		t.Fatalf("%s: round trip mismatch: in %d bytes, out %d bytes", c.Name(), len(src), len(out))
	}
	return comp
}

func TestRoundTripCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 8192)
	rng.Read(random)
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 200))
	runs := bytes.Repeat([]byte{0xAB}, 5000)
	sparse := make([]byte, 4096)
	for i := 0; i < len(sparse); i += 512 {
		sparse[i] = byte(i / 512)
	}
	periodic := make([]byte, 4096)
	for i := range periodic {
		periodic[i] = byte(i % 7)
	}
	cases := map[string][]byte{
		"empty":     {},
		"one":       {0x42},
		"two":       {0x42, 0x42},
		"random":    random,
		"text":      text,
		"runs":      runs,
		"sparse":    sparse,
		"periodic":  periodic,
		"allzero":   make([]byte, 4096),
		"short-run": {1, 1, 1},
		"min-run":   {2, 2, 2, 2},
	}
	for _, c := range allCodecs(t) {
		for name, src := range cases {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				roundTrip(t, c, src)
			})
		}
	}
}

func TestLZRW1CompressesTypicalPages(t *testing.T) {
	var c LZRW1
	// A zero page should compress enormously.
	zero := make([]byte, 4096)
	comp := roundTrip(t, c, zero)
	if len(comp) > 600 {
		t.Errorf("zero page compressed to %d bytes, want < 600", len(comp))
	}
	// English-like text should compress better than 4:3 (the paper's
	// retention threshold).
	text := []byte(strings.Repeat("aaaa memory compression cache paging sprite ", 100))[:4096]
	comp = roundTrip(t, c, text)
	if len(comp) > 4096*3/4 {
		t.Errorf("text page compressed to %d bytes, want < %d", len(comp), 4096*3/4)
	}
}

func TestLZRW1RandomDataStored(t *testing.T) {
	var c LZRW1
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	rng.Read(src)
	comp := roundTrip(t, c, src)
	// Random data must fall back to the stored block: exactly n+1 bytes.
	if len(comp) != len(src)+1 {
		t.Errorf("random page compressed to %d bytes, want stored fallback %d", len(comp), len(src)+1)
	}
	if comp[0] != flagCopy {
		t.Errorf("random page flag = %#x, want flagCopy", comp[0])
	}
}

func TestLZRW1OverlappingCopy(t *testing.T) {
	// "abcabcabc..." forces copies whose source overlaps the destination
	// (offset 3, length up to 18).
	var c LZRW1
	src := bytes.Repeat([]byte("abc"), 500)
	comp := roundTrip(t, c, src)
	if len(comp) >= len(src)/2 {
		t.Errorf("periodic data compressed to %d bytes, want < %d", len(comp), len(src)/2)
	}
}

func TestLZRW1MatchAtMaxOffset(t *testing.T) {
	var c LZRW1
	src := make([]byte, 4200)
	copy(src, "UNIQUETOKEN")
	copy(src[4090:], "UNIQUETOKEN") // offset 4090 < 4095: reachable
	roundTrip(t, c, src)

	src2 := make([]byte, 8300)
	copy(src2, "UNIQUETOKEN")
	copy(src2[8200:], "UNIQUETOKEN") // offset 8200 > 4095: not reachable
	roundTrip(t, c, src2)
}

// badBlock is a malformed compressed block, named for what is wrong with it.
type badBlock struct {
	name  string
	block []byte
}

// lzrw1BadBlocks are malformed LZRW1 blocks, one per error the decoder
// reports.
var lzrw1BadBlocks = []badBlock{
	{"bad flag", []byte{0xFF, 1, 2}},
	{"truncated control word", []byte{flagCompress, 0x01}},
	// Control word says "copy item" but only one byte follows.
	{"truncated copy item", []byte{flagCompress, 0x01, 0x00, 0x12}},
	// Copy item with offset pointing before the start of output.
	{"out-of-range offset", []byte{flagCompress, 0x01, 0x00, 0x00, 0x10}},
	// The same two offset errors in a block long enough for the
	// group-at-a-time loop: a literal, then a copy from two bytes back, or
	// from no bytes back.
	{"out-of-range offset in a whole group", append([]byte{flagCompress, 0x02, 0x00, 'a', 0x00, 0x02}, make([]byte, 64)...)},
	{"zero offset in a whole group", append([]byte{flagCompress, 0x02, 0x00, 'a', 0x00, 0x00}, make([]byte, 64)...)},
}

// fpcBadBlocks are malformed FPC blocks, one per error the decoder reports
// (and one per invalid code). Each block past the header comes twice: as
// the whole body, where only the careful loop runs, and behind 32 raw words
// with eight spare bytes after it, so that with room in dst the fast loop
// decodes the prefix and hands the error to the careful loop — at a control
// byte, or between its two codes.
var fpcBadBlocks = func() []badBlock {
	block := func(n int, body ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{flagCompress}, uint32(n)), body...)
	}
	out := []badBlock{
		{"bad flag", []byte{0xFF, 1, 2, 3, 4}},
		{"truncated header", []byte{flagCompress, 8, 0, 0}},
	}
	// Each case is a byte count and a body; the prefixed twin adds 32 words
	// to the count and puts 16 raw pairs in front of the body.
	type bodyCase struct {
		name string
		n    int
		body []byte
	}
	spare := make([]byte, 8)
	cases := []bodyCase{
		{"input exhausted", 8, nil},
		{"truncated payload", 4, []byte{fpcRaw, 1, 2}},
		{"zero run of 0", 16, append([]byte{fpcZeroRun, 0}, spare...)},
		{"zero run of 1", 16, append([]byte{fpcZeroRun, 1}, spare...)},
		{"zero run past the word count", 16, append([]byte{fpcZeroRun, 5}, spare...)},
		{"bad code in the high nibble", 16, append([]byte{0x90 | fpcSE8, 7}, spare...)},
		{"nonzero dangling nibble", 4, []byte{fpcZeroRun<<4 | fpcSE8, 7}},
		{"nonzero dangling nibble after a zero run", 16, append([]byte{fpcSE8<<4 | fpcZeroRun, 4}, spare...)},
		{"wrong tail length", 6, []byte{fpcSE8, 7, 'a'}},
	}
	for code := fpcRaw + 1; code <= 0x0F; code++ {
		cases = append(cases, bodyCase{fmt.Sprintf("bad code %d", code), 16, append([]byte{byte(code)}, spare...)})
	}
	var prefix []byte
	for i := 0; i < 16; i++ {
		prefix = append(prefix, fpcRaw<<4|fpcRaw, 1, 2, 3, 4, 5, 6, 7, byte(i))
	}
	for _, bc := range cases {
		out = append(out,
			badBlock{bc.name, block(bc.n, bc.body...)},
			badBlock{bc.name + " after 32 words", block(bc.n+32*4, append(bytes.Clone(prefix), bc.body...)...)})
	}
	return out
}()

func TestDecompressErrors(t *testing.T) {
	for _, c := range allCodecs(t) {
		if _, err := c.Decompress(nil, nil); err == nil {
			t.Errorf("%s: empty input should error", c.Name())
		}
	}
	// Into nil, only the careful loops run; into a page's capacity, the fast
	// loops run first wherever the block is long enough.
	for _, tc := range []struct {
		c   Codec
		bad []badBlock
	}{{LZRW1{}, lzrw1BadBlocks}, {FPC{}, fpcBadBlocks}} {
		for _, bad := range tc.bad {
			for _, dst := range [][]byte{nil, make([]byte, 0, fuzzPageSize)} {
				if _, err := tc.c.Decompress(dst, bad.block); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: %s into a dst of capacity %d: error %v, want ErrCorrupt", tc.c.Name(), bad.name, cap(dst), err)
				}
			}
		}
	}
	var rle RLE
	if _, err := rle.Decompress(nil, []byte{0x7F}); err == nil {
		t.Error("rle: bad flag should error")
	}
	if _, err := rle.Decompress(nil, []byte{flagCompress, 0x00}); err == nil {
		t.Error("rle: truncated literal header should error")
	}
	if _, err := rle.Decompress(nil, []byte{flagCompress, 0x00, 0x05, 'a'}); err == nil {
		t.Error("rle: truncated literal span should error")
	}
	if _, err := rle.Decompress(nil, []byte{flagCompress, 0x09}); err == nil {
		t.Error("rle: truncated run should error")
	}
	var null Null
	if _, err := null.Decompress(nil, []byte{1, 0, 0, 0}); err == nil {
		t.Error("null: length mismatch should error")
	}
	if _, err := null.Decompress(nil, []byte{0, 0}); err == nil {
		t.Error("null: short block should error")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"bdi", "fpc", "lzrw1", "lzss", "null", "rle"}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for _, w := range want {
		if _, err := Lookup(w); err != nil {
			t.Errorf("Lookup(%q): %v", w, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown codec should error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(LZRW1{})
}

// Property: round trip is the identity for arbitrary byte strings, and the
// output respects the documented size bound, for every codec.
func TestRoundTripProperty(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		f := func(src []byte) bool {
			comp := c.Compress(nil, src)
			if len(comp) > c.MaxCompressedSize(len(src)) {
				return false
			}
			out, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(out, src)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// Property: decompressing arbitrary garbage either errors or succeeds, but
// never panics and never reads out of range.
func TestDecompressGarbageNoPanic(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		f := func(junk []byte) bool {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic on garbage input: %v", c.Name(), r)
				}
			}()
			_, _ = c.Decompress(nil, junk)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// Property: compressing structured (repetitive) input with LZRW1 always
// shrinks once the input is long enough, and appending to a non-empty dst
// leaves the prefix untouched.
func TestCompressAppendsToDst(t *testing.T) {
	for _, c := range allCodecs(t) {
		prefix := []byte("PREFIX")
		src := bytes.Repeat([]byte("xy"), 300)
		out := c.Compress(append([]byte{}, prefix...), src)
		if !bytes.HasPrefix(out, prefix) {
			t.Errorf("%s: Compress clobbered dst prefix", c.Name())
		}
		dec, err := c.Decompress(append([]byte{}, prefix...), out[len(prefix):])
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(dec, append(append([]byte{}, prefix...), src...)) {
			t.Errorf("%s: Decompress clobbered dst prefix", c.Name())
		}
	}
}

func TestRLERuns(t *testing.T) {
	var c RLE
	// A very long run must be split across count bytes without corruption.
	src := bytes.Repeat([]byte{9}, 1000)
	comp := roundTrip(t, c, src)
	if len(comp) > 16 {
		t.Errorf("1000-byte run compressed to %d bytes, want <= 16", len(comp))
	}
	// Alternating bytes cannot be run-length coded: must store.
	alt := make([]byte, 512)
	for i := range alt {
		alt[i] = byte(i & 1)
	}
	comp = roundTrip(t, c, alt)
	if len(comp) != len(alt)+1 {
		t.Errorf("alternating bytes compressed to %d, want stored %d", len(comp), len(alt)+1)
	}
}

func TestRLELongLiteralSpan(t *testing.T) {
	var c RLE
	// >255 bytes with no runs at all: forces multiple literal spans, which
	// expand, which forces the stored fallback. Either way round trip holds.
	src := make([]byte, 700)
	for i := range src {
		src[i] = byte(i * 37)
	}
	roundTrip(t, c, src)
}

// Fuzz targets for the LZ codecs live in fuzz_test.go.

func BenchmarkLZRW1CompressText(b *testing.B) {
	src := []byte(strings.Repeat("memory compression cache paging sprite kernel ", 100))[:4096]
	var c LZRW1
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], src)
	}
}

func BenchmarkLZRW1DecompressText(b *testing.B) {
	src := []byte(strings.Repeat("memory compression cache paging sprite kernel ", 100))[:4096]
	var c LZRW1
	comp := c.Compress(nil, src)
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = c.Decompress(dst[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPCDecompress decodes into a page-capacity dst, against the
// reference decoder: a mixed page (raw pairs and zero runs, the fast loop's
// best case), a page of small integers (sign-extended 8- and 16-bit codes,
// decoded through the switch) and a text page (whose words do not compress,
// so the block is stored).
func BenchmarkFPCDecompress(b *testing.B) {
	ints := make([]byte, 4096)
	for i := 0; i < len(ints); i += 4 {
		binary.LittleEndian.PutUint32(ints[i:], uint32(i*37%1000-500))
	}
	text := []byte(strings.Repeat("memory compression cache paging sprite kernel ", 100))[:4096]
	for _, page := range []struct {
		name string
		data []byte
	}{{"mixed", mixedPage()}, {"ints", ints}, {"text", text}} {
		comp := FPC{}.Compress(nil, page.data)
		for _, dec := range []struct {
			name string
			c    decoder
		}{{"fpc", FPC{}}, {"ref", refFPC{}}} {
			b.Run(page.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(page.data)))
				dst := make([]byte, 0, len(page.data))
				for i := 0; i < b.N; i++ {
					var err error
					if dst, err = dec.c.Decompress(dst[:0], comp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestLZSSBeatsLZRW1OnText(t *testing.T) {
	// The asymmetric codec's reason to exist: better ratios on real text.
	text := []byte(strings.Repeat("the compression cache uses some memory to store data in compressed format so the working set of a large application fits in small memory ", 60))[:4096]
	var lzrw LZRW1
	var lzss LZSS
	a := lzrw.Compress(nil, text)
	b := lzss.Compress(nil, text)
	if len(b) >= len(a) {
		t.Fatalf("lzss (%d bytes) did not beat lzrw1 (%d bytes) on text", len(b), len(a))
	}
	roundTrip(t, lzss, text)
}

func TestLZSSLongMatch(t *testing.T) {
	// A long run exercises the length-extension byte (matches up to 514).
	var c LZSS
	src := bytes.Repeat([]byte{7}, 3000)
	comp := roundTrip(t, c, src)
	if len(comp) > 64 {
		t.Fatalf("3000-byte run compressed to %d bytes", len(comp))
	}
}

func TestLZSSFarMatch(t *testing.T) {
	// Matches beyond LZRW1's 4-KB window but within LZSS's 32-KB window.
	var c LZSS
	src := make([]byte, 20000)
	copy(src, "UNIQUESEQUENCEtokenXYZ")
	copy(src[18000:], "UNIQUESEQUENCEtokenXYZ")
	comp := roundTrip(t, c, src)
	var lzrw LZRW1
	lcomp := lzrw.Compress(nil, src)
	// Both inputs are mostly zeros, so both compress; just verify validity
	// and that lzss found the far match region too (smaller or equal).
	if len(comp) > len(lcomp) {
		t.Fatalf("lzss %d > lzrw1 %d on far-match input", len(comp), len(lcomp))
	}
}

func TestLZSSDecompressErrors(t *testing.T) {
	var c LZSS
	if _, err := c.Decompress(nil, []byte{0x5A}); err == nil {
		t.Error("bad flag accepted")
	}
	if _, err := c.Decompress(nil, []byte{flagCompress, 0x01, 0x00}); err == nil {
		t.Error("truncated copy item accepted")
	}
	// Copy with offset beyond output start.
	if _, err := c.Decompress(nil, []byte{flagCompress, 0x01, 0x10, 0x00, 0x00}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	// Length extension truncated.
	if _, err := c.Decompress(nil, []byte{flagCompress, 0x02, 'a', 0x00, 0x00, 0xFF}); err == nil {
		t.Error("truncated length extension accepted")
	}
}
