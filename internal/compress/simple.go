package compress

import (
	"encoding/binary"
	"fmt"
)

// Null is the identity codec: it stores blocks uncompressed with a 4-byte
// length header. It exists so the machinery of the compression cache can be
// exercised and benchmarked with zero compression benefit (the degenerate
// point of Figure 1 where the ratio is 1:1), and as the baseline codec for
// data types known to be incompressible.
type Null struct{}

// Name reports "null".
func (Null) Name() string { return "null" }

// MaxCompressedSize reports n+4 (length header plus the raw bytes).
func (Null) MaxCompressedSize(n int) int { return n + 4 }

// CompressedLen reports n+4, the length of Compress's output for any n-byte
// input, without producing it: a stored block's length depends on its
// input's length alone.
func (Null) CompressedLen(n int) int { return n + 4 }

// Compress appends a stored block to dst.
func (Null) Compress(dst, src []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(src)))
	dst = append(dst, hdr[:]...)
	return append(dst, src...)
}

// Decompress appends the stored bytes to dst.
func (Null) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("%w: short null block", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(src[:4])
	if int(n) != len(src)-4 {
		return nil, fmt.Errorf("%w: null block length %d, have %d bytes", ErrCorrupt, n, len(src)-4)
	}
	return append(dst, src[4:]...), nil
}

// RLE is a byte-level run-length codec. It is faster than LZRW1 but only
// effective on pages dominated by byte runs (zero-filled pages, sparse
// arrays). Together with LZRW1 and Null it demonstrates the per-data-type
// codec choice the paper's design calls for.
//
// Format: a flag byte (flagCompress/flagCopy as in LZRW1), then a sequence of
// (count, value) pairs for runs of 4 or more equal bytes, and literal spans
// encoded as (0x00, spanLen, bytes...). Counts are one byte (4..255); longer
// runs repeat. The stored fallback keeps worst-case expansion at one byte.
type RLE struct{}

const rleMinRun = 4

// Name reports "rle".
func (RLE) Name() string { return "rle" }

// MaxCompressedSize reports n+1 (stored fallback).
func (RLE) MaxCompressedSize(n int) int { return n + 1 }

// Compress appends the run-length-encoded form of src to dst.
func (RLE) Compress(dst, src []byte) []byte {
	base := len(dst)
	limit := base + len(src) + 1
	dst = append(dst, flagCompress)
	i := 0
	for i < len(src) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < 255 {
			run++
		}
		if run >= rleMinRun {
			dst = append(dst, byte(run), src[i])
			i += run
		} else {
			// Gather a literal span up to the next long run (or 255 bytes).
			start := i
			// Bound the span so that span length plus a short tail run never
			// exceeds the one-byte length field.
			for i < len(src) && i-start <= 255-rleMinRun {
				r := 1
				for i+r < len(src) && src[i+r] == src[i] && r < rleMinRun {
					r++
				}
				if r >= rleMinRun {
					break
				}
				i += r
			}
			dst = append(dst, 0x00, byte(i-start))
			dst = append(dst, src[start:i]...)
		}
		if len(dst) > limit {
			return storedBlock(dst[:base], src)
		}
	}
	if len(dst) > limit {
		return storedBlock(dst[:base], src)
	}
	return dst
}

// Decompress appends the decoded form of an RLE block to dst.
func (RLE) Decompress(dst, src []byte) ([]byte, error) {
	body, stored, err := splitBlock(src)
	if err != nil {
		return nil, err
	}
	if stored {
		return append(dst, body...), nil
	}
	for i := 0; i < len(body); {
		switch c := body[i]; c {
		case 0x00:
			if i+2 > len(body) {
				return nil, fmt.Errorf("%w: truncated literal header", ErrCorrupt)
			}
			n := int(body[i+1])
			if i+2+n > len(body) {
				return nil, fmt.Errorf("%w: truncated literal span", ErrCorrupt)
			}
			dst = append(dst, body[i+2:i+2+n]...)
			i += 2 + n
		default:
			if i+2 > len(body) {
				return nil, fmt.Errorf("%w: truncated run", ErrCorrupt)
			}
			v := body[i+1]
			for j := 0; j < int(c); j++ {
				dst = append(dst, v)
			}
			i += 2
		}
	}
	return dst, nil
}
