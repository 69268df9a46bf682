package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The page-compression codecs sit on the fault path: every compressed page
// the cache serves goes through Decompress, and a decode that panics or
// silently returns wrong bytes corrupts simulated memory. Two properties
// are fuzzed for both LZ codecs:
//
//  1. Round-trip identity: Decompress(Compress(p)) == p for any page-sized
//     input, and the compressed block respects MaxCompressedSize.
//  2. Corrupt-input totality: Decompress never panics on arbitrary bytes,
//     and when it fails, the error wraps ErrCorrupt so callers can
//     distinguish corruption from programming errors. (Arbitrary bytes may
//     also decode "successfully" to the wrong length — restoreInto's
//     length check is what rejects those.)

const fuzzPageSize = 4096

func seedPages() [][]byte {
	// An incompressible-looking ramp.
	ramp := make([]byte, fuzzPageSize)
	for i := range ramp {
		ramp[i] = byte(i*7 + i>>8)
	}
	return [][]byte{
		{},
		{0},
		[]byte("a"),
		[]byte(strings.Repeat("the compression cache extends physical memory ", 90)),
		bytes.Repeat([]byte{0}, fuzzPageSize),
		bytes.Repeat([]byte{0xAA, 0x55}, 2048),
		ramp,
		mixedPage(),
	}
}

// mixedPage alternates 64-byte blocks of seeded random bytes with zero
// blocks, a page of the shape the fleet benchmark writes: FPC codes it as
// pairs of raw words and zero runs, on both sides of a control byte.
func mixedPage() []byte {
	rng := rand.New(rand.NewSource(27))
	page := make([]byte, fuzzPageSize)
	for blk := 0; blk < len(page); blk += 128 {
		rng.Read(page[blk : blk+64])
	}
	return page
}

func fuzzSeeds(f *testing.F) {
	for _, p := range seedPages() {
		f.Add(p)
	}
}

func fuzzRoundTrip(f *testing.F, c Codec) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > fuzzPageSize {
			p = p[:fuzzPageSize]
		}
		comp := c.Compress(nil, p)
		if max := c.MaxCompressedSize(len(p)); len(comp) > max {
			t.Fatalf("compressed %d bytes into %d, above MaxCompressedSize %d", len(p), len(comp), max)
		}
		// Decompress into a tight page-sized buffer, the way the machine's
		// fault path does: the result must still be exact.
		dst := make([]byte, 0, fuzzPageSize)
		out, err := c.Decompress(dst, comp)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		// The bound restoreInto depends on: a block compressed from a
		// page never decodes past the page size.
		if len(out) > fuzzPageSize {
			t.Fatalf("page-sized block decoded to %d bytes", len(out))
		}
		if !bytes.Equal(out, p) {
			t.Fatalf("round trip changed %d bytes into %d bytes", len(p), len(out))
		}
	})
}

// flippedBlocks returns valid blocks with one byte flipped, the interesting
// corruptions.
func flippedBlocks(c Codec) [][]byte {
	good := c.Compress(nil, []byte(strings.Repeat("seed page content ", 64)))
	var out [][]byte
	for i := 0; i < len(good) && i < 8; i++ {
		mut := bytes.Clone(good)
		mut[i] ^= 0x80
		out = append(out, mut)
	}
	return out
}

func fuzzCorrupt(f *testing.F, c Codec) {
	fuzzSeeds(f)
	for _, mut := range flippedBlocks(c) {
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out, err := c.Decompress(make([]byte, 0, fuzzPageSize), src)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Successful decodes of arbitrary bytes are fine (restoreInto
		// rejects wrong lengths); they just must stay bounded: one copy item
		// expands to at most ~2*lzssLenCap bytes, so output is linear in the
		// input with a constant far below 1024.
		if maxExpand := 1024 * (len(src) + 1); len(out) > maxExpand {
			t.Fatalf("decoded %d input bytes to %d output bytes", len(src), len(out))
		}
	})
}

func FuzzLZRW1RoundTrip(f *testing.F) { fuzzRoundTrip(f, LZRW1{}) }
func FuzzLZSSRoundTrip(f *testing.F)  { fuzzRoundTrip(f, LZSS{}) }
func FuzzBDIRoundTrip(f *testing.F)   { fuzzRoundTrip(f, BDI{}) }
func FuzzFPCRoundTrip(f *testing.F)   { fuzzRoundTrip(f, FPC{}) }
func FuzzLZRW1Corrupt(f *testing.F)   { fuzzCorrupt(f, LZRW1{}) }
func FuzzLZSSCorrupt(f *testing.F)    { fuzzCorrupt(f, LZSS{}) }
func FuzzBDICorrupt(f *testing.F)     { fuzzCorrupt(f, BDI{}) }
func FuzzFPCCorrupt(f *testing.F)     { fuzzCorrupt(f, FPC{}) }

// FuzzCompressDirtyScratch checks the recycled-dst contract documented on
// Codec: compressing into a zero-length slice whose backing array is full of
// garbage must produce exactly the bytes of a fresh compression. The machine
// reuses one scratch buffer for every page it compresses, so a codec that
// reads stale dst bytes beyond len(dst) would silently corrupt pages in a
// data-dependent, hard-to-reproduce way.
func FuzzCompressDirtyScratch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > fuzzPageSize {
			p = p[:fuzzPageSize]
		}
		for _, name := range Names() {
			c, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			clean := c.Compress(nil, p)
			scratch := make([]byte, c.MaxCompressedSize(fuzzPageSize))
			for i := range scratch {
				scratch[i] = 0xFF
			}
			dirty := c.Compress(scratch[:0], p)
			if !bytes.Equal(clean, dirty) {
				t.Fatalf("%s: dirty-scratch compression differs: clean %d bytes, dirty %d bytes",
					c.Name(), len(clean), len(dirty))
			}
		}
	})
}

// FuzzDecompressDirtyScratch is the decode half of the recycled-dst
// contract: decompressing into a zero-length slice whose backing array is
// full of garbage must give exactly the verdict and the bytes of a
// decompression into a fresh buffer. The machine decompresses straight into
// pool frames that still hold another page's contents.
func FuzzDecompressDirtyScratch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > fuzzPageSize {
			p = p[:fuzzPageSize]
		}
		for _, c := range allCodecs(t) {
			// Arbitrary bytes mostly fail to decode; the compressed form of
			// the same bytes is the block that exercises the whole decoder.
			for _, block := range [][]byte{p, c.Compress(nil, p)} {
				clean, cleanErr := c.Decompress(nil, block)
				scratch := bytes.Repeat([]byte{0xFF}, fuzzPageSize)
				dirty, dirtyErr := c.Decompress(scratch[:0], block)
				if (cleanErr == nil) != (dirtyErr == nil) {
					t.Fatalf("%s: dirty-scratch decode error %v, clean %v", c.Name(), dirtyErr, cleanErr)
				}
				if cleanErr == nil && !bytes.Equal(clean, dirty) {
					t.Fatalf("%s: dirty-scratch decompression differs: clean %d bytes, dirty %d bytes",
						c.Name(), len(clean), len(dirty))
				}
			}
		}
	})
}

// corpusBlocks reads the checked-in seed corpus of one fuzz target.
func corpusBlocks(t testing.TB, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus for %s: %v", target, err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		block, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(block))
	}
	return out
}

// TestDecompressStaysInsideCap decompresses into the middle frame of a
// three-frame arena through a three-index slice, the way the machine hands
// out mem.Pool frames: whatever the input — valid pages, and for the two
// codecs with a fast loop the malformed blocks of TestDecompressErrors, the
// flipped blocks and every seed of their Corrupt fuzz target — the
// neighbouring frames must come out untouched. A decoder may use dst's spare
// capacity as scratch, but one byte past cap(dst) is somebody else's page.
func TestDecompressStaysInsideCap(t *testing.T) {
	const canary = 0xC5
	arena := make([]byte, 3*fuzzPageSize)
	decode := func(c Codec, block []byte) ([]byte, error) {
		for i := range arena {
			arena[i] = canary
		}
		out, err := c.Decompress(arena[fuzzPageSize:fuzzPageSize:2*fuzzPageSize], block)
		for i := 0; i < fuzzPageSize; i++ {
			if arena[i] != canary || arena[2*fuzzPageSize+i] != canary {
				t.Fatalf("%s: decoding a %d-byte block wrote outside cap(dst), at frame offset %d",
					c.Name(), len(block), i)
			}
		}
		return out, err
	}
	for _, c := range allCodecs(t) {
		for _, page := range seedPages() {
			out, err := decode(c, c.Compress(nil, page))
			if err != nil || !bytes.Equal(out, page) {
				t.Errorf("%s: %d-byte page came back as %d bytes (%v)", c.Name(), len(page), len(out), err)
			}
		}
	}
	for _, tc := range []struct {
		c      Codec
		corpus string
		bad    []badBlock
	}{
		{LZRW1{}, "FuzzLZRW1Corrupt", lzrw1BadBlocks},
		{FPC{}, "FuzzFPCCorrupt", fpcBadBlocks},
	} {
		hostile := append(flippedBlocks(tc.c), seedPages()...)
		hostile = append(hostile, corpusBlocks(t, tc.corpus)...)
		for _, bad := range tc.bad {
			hostile = append(hostile, bad.block)
		}
		for _, block := range hostile {
			decode(tc.c, block)
		}
	}
}
