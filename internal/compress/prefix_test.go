package compress

import (
	"bytes"
	"testing"
)

// A prefix decode is the machine's way of restoring a page only as far as
// the program reads it, and of finishing it later. Whatever the steps, the
// bytes have to be Decompress's and so do the errors: a step that returned
// bytes a one-shot decode would not have made corrupts simulated memory, and
// one that missed an error lets a bad fragment through. The fuzz input is a
// block and the steps' sizes; each byte of steps asks for that many 64-byte
// units past what the steps so far produced, 0 for just one more byte.

// prefixSeeds adds what the codec's existing corpora hold, valid and
// corrupt: every seed page compressed, the blocks themselves taken as
// blocks, the flipped blocks and the malformed ones, each under a few step
// patterns.
func prefixSeeds(f *testing.F, c Codec, bad []badBlock, corpora ...string) {
	blocks := flippedBlocks(c)
	for _, p := range seedPages() {
		blocks = append(blocks, c.Compress(nil, p), p)
	}
	for _, b := range bad {
		blocks = append(blocks, b.block)
	}
	for _, target := range corpora {
		for _, block := range corpusBlocks(f, target) {
			blocks = append(blocks, block, c.Compress(nil, block))
		}
	}
	patterns := [][]byte{{}, {0}, {1, 7, 0, 30}, {64}}
	for i, block := range blocks {
		f.Add(block, patterns[i%len(patterns)])
	}
}

// checkPrefixDecode decodes block in the steps steps asks for, into a
// page-capacity dst and into a recycled one full of garbage, and holds every
// step to Decompress: the bytes so far are a prefix of its output, a step
// stops short of what it was asked for only at the block's end, it always
// makes progress, and the last step ends with Decompress's bytes or returns
// its error.
func checkPrefixDecode(t *testing.T, c PrefixDecoder, block, steps []byte) {
	want, wantErr := c.Decompress(nil, block)
	for _, dst := range [][]byte{
		make([]byte, 0, fuzzPageSize),
		bytes.Repeat([]byte{0xA5}, fuzzPageSize)[:0],
	} {
		var at Prefix
		out := dst
		var err error
		for i := 0; !at.Done() && err == nil; i++ {
			if i > len(block)+2 {
				t.Fatalf("%s: %d steps over a %d-byte block and not done", c.Name(), i, len(block))
			}
			upto := len(out) + 1
			if len(steps) > 0 {
				upto += 64 * int(steps[i%len(steps)])
			}
			var next []byte
			if next, at, err = c.DecompressPrefix(out, block, at, upto); err != nil {
				break
			}
			if len(next) <= len(out) && !at.Done() {
				t.Fatalf("%s: step %d asked for %d bytes and made no progress past %d", c.Name(), i, upto, len(out))
			}
			if len(next) < upto && !at.Done() {
				t.Fatalf("%s: step %d asked for %d bytes and stopped at %d before the end", c.Name(), i, upto, len(next))
			}
			if wantErr == nil && (len(next) > len(want) || !bytes.Equal(next, want[:len(next)])) {
				t.Fatalf("%s: after step %d the %d bytes are not the first of Decompress's %d", c.Name(), i, len(next), len(want))
			}
			out = next
		}
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("%s: Decompress fails (%v) and the steps decoded %d bytes", c.Name(), wantErr, len(out))
		case wantErr != nil && err.Error() != wantErr.Error():
			t.Fatalf("%s: the steps fail with %q, Decompress with %q", c.Name(), err, wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("%s: Decompress decodes %d bytes and a step fails: %v", c.Name(), len(want), err)
		case wantErr == nil && !bytes.Equal(out, want):
			t.Fatalf("%s: the steps decoded %d bytes, Decompress %d", c.Name(), len(out), len(want))
		}
	}
}

func FuzzLZRW1PrefixDecode(f *testing.F) {
	prefixSeeds(f, LZRW1{}, lzrw1BadBlocks, "FuzzLZRW1Corrupt", "FuzzLZRW1MatchesReference")
	f.Fuzz(func(t *testing.T, block, steps []byte) { checkPrefixDecode(t, LZRW1{}, block, steps) })
}

func FuzzFPCPrefixDecode(f *testing.F) {
	prefixSeeds(f, FPC{}, fpcBadBlocks, "FuzzFPCCorrupt", "FuzzFPCMatchesReference")
	f.Fuzz(func(t *testing.T, block, steps []byte) { checkPrefixDecode(t, FPC{}, block, steps) })
}
