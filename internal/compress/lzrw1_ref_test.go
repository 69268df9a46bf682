package compress

import (
	"bytes"
	"fmt"
	"testing"
)

// refLZRW1 is the LZRW1 implementation as it stood before the codec was
// rewritten for host speed, kept verbatim as the differential oracle: the
// format and every emitted byte are pinned by the golden digests, so
// LZRW1 must agree with it on every input (FuzzLZRW1MatchesReference).
type refLZRW1 struct{}

// refLZHash mixes three bytes into a table index. This is Williams's original
// multiplicative hash.
func refLZHash(b0, b1, b2 byte) uint32 {
	return (40543 * ((((uint32(b0) << 4) ^ uint32(b1)) << 4) ^ uint32(b2)) >> 4) & (lzHashSize - 1)
}

// Compress appends the LZRW1-compressed form of src to dst.
func (refLZRW1) Compress(dst, src []byte) []byte {
	base := len(dst)
	if len(src) == 0 {
		return append(dst, flagCompress)
	}
	// Budget: if compressed output reaches len(src)+1 we are not winning;
	// fall back to a stored block of exactly len(src)+1 bytes.
	limit := base + len(src) + 1

	var hash [lzHashSize]int32
	for i := range hash {
		hash[i] = -1
	}

	dst = append(dst, flagCompress)
	// Reserve space for the first control word.
	ctrlPos := len(dst)
	dst = append(dst, 0, 0)
	var control uint16
	controlBits := 0

	flushControl := func() {
		dst[ctrlPos] = byte(control)
		dst[ctrlPos+1] = byte(control >> 8)
	}

	pos := 0
	for pos < len(src) {
		if len(dst)+2 > limit {
			return storedBlock(dst[:base], src)
		}
		emitted := false
		if pos+lzMinMatch <= len(src) {
			h := refLZHash(src[pos], src[pos+1], src[pos+2])
			cand := hash[h]
			hash[h] = int32(pos)
			if cand >= 0 {
				off := pos - int(cand)
				if off >= 1 && off <= lzMaxOff &&
					src[cand] == src[pos] && src[cand+1] == src[pos+1] && src[cand+2] == src[pos+2] {
					// Extend the match. The source region may overlap the
					// current position (off < length), which reproduces
					// earlier output bytes exactly as LZ77 intends.
					maxLen := lzMaxMatch
					if rem := len(src) - pos; rem < maxLen {
						maxLen = rem
					}
					length := lzMinMatch
					for length < maxLen && src[int(cand)+length] == src[pos+length] {
						length++
					}
					dst = append(dst,
						byte((off>>4)&0xF0)|byte(length-lzMinMatch),
						byte(off))
					pos += length
					control = control>>1 | 0x8000
					controlBits++
					emitted = true
				}
			}
		}
		if !emitted {
			dst = append(dst, src[pos])
			pos++
			control >>= 1
			controlBits++
		}
		if controlBits == 16 {
			flushControl()
			if pos < len(src) {
				if len(dst)+2 > limit {
					return storedBlock(dst[:base], src)
				}
				ctrlPos = len(dst)
				dst = append(dst, 0, 0)
			}
			control = 0
			controlBits = 0
		}
	}
	if controlBits > 0 {
		control >>= 16 - uint(controlBits)
		flushControl()
	} else if ctrlPos == len(dst)-2 {
		// A control word was reserved but no items followed; drop it.
		dst = dst[:len(dst)-2]
	}
	if len(dst) > limit {
		return storedBlock(dst[:base], src)
	}
	return dst
}

// Decompress appends the decompressed form of an LZRW1 block to dst.
func (refLZRW1) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrCorrupt)
	}
	flag, body := src[0], src[1:]
	switch flag {
	case flagCopy:
		return append(dst, body...), nil
	case flagCompress:
	default:
		return nil, fmt.Errorf("%w: bad flag byte %#x", ErrCorrupt, flag)
	}
	base := len(dst)
	pos := 0
	for pos < len(body) {
		if pos+2 > len(body) {
			return nil, fmt.Errorf("%w: truncated control word", ErrCorrupt)
		}
		control := uint16(body[pos]) | uint16(body[pos+1])<<8
		pos += 2
		for bit := 0; bit < 16 && pos < len(body); bit++ {
			if control&1 == 1 {
				if pos+2 > len(body) {
					return nil, fmt.Errorf("%w: truncated copy item", ErrCorrupt)
				}
				b0, b1 := body[pos], body[pos+1]
				pos += 2
				off := int(b0&0xF0)<<4 | int(b1)
				length := int(b0&0x0F) + lzMinMatch
				start := len(dst) - off
				if off == 0 || start < base {
					return nil, fmt.Errorf("%w: copy offset %d out of range", ErrCorrupt, off)
				}
				// Byte-at-a-time copy: source and destination may overlap
				// when off < length.
				for i := 0; i < length; i++ {
					dst = append(dst, dst[start+i])
				}
			} else {
				dst = append(dst, body[pos])
				pos++
			}
			control >>= 1
		}
	}
	return dst, nil
}

// errText renders an error for comparison; the two decoders must agree on
// the message, not only on the verdict.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// maxPageSize is the machine's largest page, the longest input on which
// LZRW1 owes the reference its bytes (see LZRW1).
const maxPageSize = 1 << 16

// checkLZRW1MatchesReference holds LZRW1 to refLZRW1 on one input, taken
// both as a page to compress and as a block to decompress, under every
// destination shape the buffer contract names. The input is cut to the
// largest page. The reference always gets a clean copy of what dst holds up
// to its length.
func checkLZRW1MatchesReference(t testing.TB, data []byte) {
	t.Helper()
	if len(data) > maxPageSize {
		data = data[:maxPageSize]
	}
	var lz LZRW1
	var ref refLZRW1
	prefix := []byte("prefix kept")
	recycled := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n)[:0] }

	room := len(prefix) + lz.MaxCompressedSize(len(data))
	for _, tc := range []struct {
		name string
		dst  []byte
	}{
		{"clean dst", nil},
		{"prefixed dst", bytes.Clone(prefix)},
		{"recycled dst", recycled(room)},
		{"recycled prefixed dst", append(recycled(room), prefix...)},
	} {
		want := ref.Compress(bytes.Clone(tc.dst), data)
		if got := lz.Compress(tc.dst, data); !bytes.Equal(got, want) {
			t.Fatalf("Compress of %d bytes into a %s: %d bytes, reference %d", len(data), tc.name, len(got), len(want))
		}
	}

	for _, block := range [][]byte{data, ref.Compress(nil, data)} {
		checkDecompressMatchesReference(t, lz, ref, block)
	}
}

// decoder is the half of a codec a reference has to match.
type decoder interface {
	Decompress(dst, src []byte) ([]byte, error)
}

// checkDecompressMatchesReference holds a decoder to its reference on one
// block, into every destination shape the buffer contract names: none, a
// page's capacity, more, a recycled buffer full of 0xFF, and one holding a
// prefix. The reference always gets a clean copy of what dst holds up to its
// length.
func checkDecompressMatchesReference(t testing.TB, c, ref decoder, block []byte) {
	t.Helper()
	prefix := []byte("prefix kept")
	for _, tc := range []struct {
		name string
		dst  []byte
	}{
		{"nil dst", nil},
		{"page-capacity dst", make([]byte, 0, fuzzPageSize)},
		{"oversize dst", make([]byte, 0, 3*fuzzPageSize)},
		{"recycled dst", bytes.Repeat([]byte{0xFF}, 2*fuzzPageSize)[:0]},
		{"prefixed dst", append(make([]byte, 0, fuzzPageSize), prefix...)},
	} {
		want, wantErr := ref.Decompress(bytes.Clone(tc.dst), block)
		got, err := c.Decompress(tc.dst, block)
		if errText(err) != errText(wantErr) {
			t.Fatalf("Decompress of %d bytes into a %s: error %v, reference %v", len(block), tc.name, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Decompress of %d bytes into a %s: %d bytes, reference %d", len(block), tc.name, len(got), len(want))
		}
	}
}

// FuzzLZRW1MatchesReference is the byte-identity contract: same compressed
// bytes, same decoded bytes and the same errors as the reference, whatever
// the destination buffer looked like. The malformed blocks of
// lzrw1BadBlocks are seeds, so every error's text is compared on each run of
// the test.
func FuzzLZRW1MatchesReference(f *testing.F) {
	fuzzSeeds(f)
	for _, bad := range lzrw1BadBlocks {
		f.Add(bad.block)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLZRW1MatchesReference(t, data) })
}
