package compress

import (
	"bytes"
	"errors"
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

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte("a"))
	f.Add([]byte(strings.Repeat("the compression cache extends physical memory ", 90)))
	f.Add(bytes.Repeat([]byte{0}, fuzzPageSize))
	f.Add(bytes.Repeat([]byte{0xAA, 0x55}, 2048))
	// An incompressible-looking ramp.
	ramp := make([]byte, fuzzPageSize)
	for i := range ramp {
		ramp[i] = byte(i*7 + i>>8)
	}
	f.Add(ramp)
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

func fuzzCorrupt(f *testing.F, c Codec) {
	fuzzSeeds(f)
	// Valid blocks with a flipped byte are the interesting corruptions.
	good := c.Compress(nil, []byte(strings.Repeat("seed page content ", 64)))
	for i := 0; i < len(good) && i < 8; i++ {
		mut := bytes.Clone(good)
		mut[i] ^= 0x80
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
