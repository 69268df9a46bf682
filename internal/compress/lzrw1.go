package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// LZRW1 implements Ross Williams's LZRW1 algorithm ("An Extremely Fast
// Ziv-Lempel Data Compression Algorithm", DCC 1991), the codec the paper's
// compression cache uses. It is a single-pass LZ77 variant tuned for speed:
//
//   - A 4096-entry hash table maps the hash of the next three input bytes to
//     the most recent position where that hash was seen. There is no
//     collision chain and no verification beyond a direct byte comparison,
//     so the table is a heuristic, not an index.
//   - Output is a sequence of 16-item groups. Each group is preceded by a
//     16-bit little-endian control word holding one bit per item, LSB first:
//     0 = literal byte, 1 = copy item.
//   - A copy item is two bytes: the first byte's high nibble holds bits 8–11
//     of the match offset and its low nibble holds length-3; the second byte
//     holds bits 0–7 of the offset. Offsets are 1–4095 back from the current
//     output position; lengths are 3–18 bytes.
//   - A block begins with a one-byte flag: flagCompress for compressed data
//     or flagCopy for stored data. The stored fallback is used whenever
//     compression would expand the block, so worst-case expansion is exactly
//     one byte. (Williams's C original used a four-byte flag word; one byte
//     carries the same information and matters at page granularity.)
//
// Decompression needs no hash table and runs roughly twice as fast as
// compression, the asymmetry Figure 1 of the paper assumes.
//
// Every golden digest pins this codec's compressed sizes, so the
// implementation may spend fewer host cycles but never emit different bytes;
// refLZRW1 (in the tests) is the plain coding it must agree with on every
// input of up to 64 KBytes, the largest page. The hash table holds 16-bit
// positions, so past 64 KBytes a slot holds a position cut short, which the
// offset check rejects where the reference may find a match: the output may
// then differ from the reference's, but still decompresses to the input. Both
// directions run a fast loop over whole 16-item groups while a worst-case
// group fits in what is left of the input and of the output, and finish with
// a careful per-item loop that checks every access. The fast loops reach
// memory through fixed-size array windows — (*[N]byte)(s[i : i+N : i+N]) is
// one bounds check, after which constant offsets inside the window need none
// and a whole-window assignment is a single move.
type LZRW1 struct{}

const (
	flagCompress = 0x00
	flagCopy     = 0x01

	lzMinMatch = 3
	lzMaxMatch = 18   // 4-bit length field encodes len-3 in 0..15
	lzMaxOff   = 4095 // 12-bit offset
	lzHashSize = 4096

	lzGroupItems = 16

	// lzReach is how far past a position the group loops look or write in
	// one step: a three-byte match test plus two eight-byte words.
	lzReach = lzMinMatch + 16

	// lzGroupSpan bounds the plaintext one group covers — sixteen maximal
	// copies — plus the 16 bytes a block move that starts at its very end
	// may still touch.
	lzGroupSpan = lzGroupItems*lzMaxMatch + 16

	// lzGroupIn bounds the compressed bytes a group occupies — the control
	// word and sixteen two-byte items — plus the same 16 bytes.
	lzGroupIn = 2 + 2*lzGroupItems + 16
)

// lzZero is what Decompress extends dst from to claim its spare capacity.
// Output beyond len(lzZero) bytes is still decoded, by the careful loop.
// FPC's careful loop appends its zero runs from it too.
var lzZero [1 << 16]byte

// Name reports "lzrw1".
func (LZRW1) Name() string { return "lzrw1" }

// MaxCompressedSize reports n+1: the stored fallback adds only the flag byte.
func (LZRW1) MaxCompressedSize(n int) int { return n + 1 }

// lzHash mixes the low three bytes of v — the next three input bytes, first
// byte lowest — into a table index. This is Williams's original
// multiplicative hash.
func lzHash(v uint32) uint32 {
	return (40543 * ((v&0xFF)<<8 ^ (v>>8&0xFF)<<4 ^ v>>16&0xFF) >> 4) & (lzHashSize - 1)
}

// Compress appends the LZRW1-compressed form of src to dst.
func (LZRW1) Compress(dst, src []byte) []byte {
	base, n := len(dst), len(src)
	if n == 0 {
		return append(dst, flagCompress)
	}
	// Start from the stored block. It is the fallback, its length is the
	// budget (compressed output that would pass len(src)+1 bytes is not
	// winning), and it claims every byte the compressed form is then written
	// over by index, so nothing below reads or grows dst.
	buf := storedBlock(dst, src)
	limit := len(buf)

	// table[h] is the most recent position whose three bytes hashed to h. A
	// never-written slot reads as position 0 and cannot fake a match: at
	// position 0 the offset is 0, which is rejected, and anywhere later a
	// match needs the three bytes at 0 to equal the three at pos, so both
	// hash to this slot — which position 0 wrote before any other.
	var table [lzHashSize]uint16
	pos, o := 0, base+1

	// Whole groups: sixteen items look at less than lzGroupSpan bytes of src
	// (the last starts at most 15*18 bytes in and reaches lzReach further)
	// and write a control word and at most 32 bytes, so one check per group
	// stands for the careful loop's check per item (output only grows).
	for pos+lzGroupSpan <= n && o+2+2*lzGroupItems <= limit {
		ctrlPos := o
		o += 2
		control := 0
		for bit := 0; bit < lzGroupItems; bit++ {
			cur := (*[lzReach]byte)(src[pos : pos+lzReach : pos+lzReach])
			v := binary.LittleEndian.Uint32(cur[:4])
			h := lzHash(v)
			cand := int(table[h])
			table[h] = uint16(pos)
			off := pos - cand
			old := (*[lzReach]byte)(src[cand : cand+lzReach : cand+lzReach])
			if (v^binary.LittleEndian.Uint32(old[:4]))<<8 != 0 || uint(off-1) >= lzMaxOff {
				buf[o] = byte(v)
				o++
				pos++
				continue
			}
			// Extend the match to at most 18 bytes, eight at a time. The
			// source region may overlap the current position (off < length),
			// which reproduces earlier output bytes exactly as LZ77 intends.
			length := lzMinMatch + 8
			x := binary.LittleEndian.Uint64(old[lzMinMatch:]) ^ binary.LittleEndian.Uint64(cur[lzMinMatch:])
			if x != 0 {
				length = lzMinMatch
			} else {
				x = binary.LittleEndian.Uint64(old[lzMinMatch+8:]) ^ binary.LittleEndian.Uint64(cur[lzMinMatch+8:])
			}
			length = min(length+bits.TrailingZeros64(x)/8, lzMaxMatch)
			buf[o] = byte(off>>4&0xF0) | byte(length-lzMinMatch)
			buf[o+1] = byte(off)
			o += 2
			pos += length
			control |= 1 << bit
		}
		buf[ctrlPos] = byte(control)
		buf[ctrlPos+1] = byte(control >> 8)
	}

	// The rest an item at a time, checking the budget before each control
	// word and each item.
	ctrlPos, control, controlBits := 0, 0, 0
	for pos < n {
		if controlBits == 0 {
			if o+2 > limit {
				return storedBlock(buf[:base], src)
			}
			ctrlPos = o
			o += 2
		}
		if o+2 > limit {
			return storedBlock(buf[:base], src)
		}
		length := 1
		if pos+lzMinMatch <= n {
			h := lzHash(uint32(src[pos]) | uint32(src[pos+1])<<8 | uint32(src[pos+2])<<16)
			cand := int(table[h])
			table[h] = uint16(pos)
			off := pos - cand
			if uint(off-1) < lzMaxOff &&
				src[cand] == src[pos] && src[cand+1] == src[pos+1] && src[cand+2] == src[pos+2] {
				maxLen := min(lzMaxMatch, n-pos)
				length = lzMinMatch
				for length < maxLen && src[cand+length] == src[pos+length] {
					length++
				}
				buf[o] = byte(off>>4&0xF0) | byte(length-lzMinMatch)
				buf[o+1] = byte(off)
				o += 2
				control |= 1 << controlBits
			}
		}
		if length == 1 {
			buf[o] = src[pos]
			o++
		}
		pos += length
		if controlBits++; controlBits == lzGroupItems || pos == n {
			buf[ctrlPos] = byte(control)
			buf[ctrlPos+1] = byte(control >> 8)
			control, controlBits = 0, 0
		}
	}
	buf[base] = flagCompress
	return buf[:o]
}

func storedBlock(dst, src []byte) []byte {
	dst = append(dst, flagCopy)
	return append(dst, src...)
}

// Decompress appends the decompressed form of an LZRW1 block to dst.
func (LZRW1) Decompress(dst, src []byte) ([]byte, error) {
	body, stored, err := splitBlock(src)
	if err != nil {
		return nil, err
	}
	if stored {
		return append(dst, body...), nil
	}
	out, _, err := lzDecode(dst, body, len(dst), 0, math.MaxInt)
	return out, err
}

// DecompressPrefix is the prefix decoder (see PrefixDecoder): it stops at the
// first group boundary at or past upto.
func (LZRW1) DecompressPrefix(dst, src []byte, at Prefix, upto int) ([]byte, Prefix, error) {
	if at.done {
		return dst, at, nil
	}
	body, stored, err := splitBlock(src)
	if err != nil {
		return nil, at, err
	}
	if stored {
		out, at := storedPrefix(dst, body, at, upto)
		return out, at, nil
	}
	out, pos, err := lzDecode(dst, body, 0, at.in, upto)
	if err != nil {
		return nil, at, err
	}
	return out, Prefix{in: pos, done: pos == len(body)}, nil
}

// lzDecode decodes an LZRW1 block's body from pos, a group boundary, onto
// dst, whose bytes from base on are the block's output so far. It stops at
// the end of the body or at the first group boundary where the output
// reaches upto bytes of dst, and returns the extended slice and where it
// stopped.
func lzDecode(dst, body []byte, base, pos, upto int) ([]byte, int, error) {
	// Whole groups, a literal run at a time: while a group's input is all
	// there and its worst-case output fits in dst's capacity, each step
	// moves the literals in front of the next copy item as one 16-byte block
	// and advances by the run's true length, then moves the copy in 8-byte
	// words. A move may run past the end of its item; what it writes there
	// is overwritten by the next item or cut off by the final length, and it
	// stays inside the capacity claimed here — bytes the caller never filled
	// and this decoder zeroes before it touches them. A prefix step claims
	// only what the groups up to upto can reach.
	spare := min(cap(dst)-len(dst), len(lzZero))
	if upto-len(dst) < spare-lzGroupSpan {
		spare = max(upto-len(dst)+lzGroupSpan, 0)
	}
	buf := append(dst, lzZero[:spare]...)
	d := len(dst)
	for d < upto && pos+lzGroupIn <= len(body) && d+lzGroupSpan <= len(buf) {
		// Bit 16 ends the last run where the group ends.
		control := uint(body[pos]) | uint(body[pos+1])<<8 | 1<<lzGroupItems
		pos += 2
		for {
			run := bits.TrailingZeros(control)
			*(*[16]byte)(buf[d : d+16 : d+16]) = *(*[16]byte)(body[pos : pos+16 : pos+16])
			d += run
			pos += run
			if control >>= run; control == 1 {
				break
			}
			control >>= 1
			b0, b1 := body[pos], body[pos+1]
			pos += 2
			off := int(b0&0xF0)<<4 | int(b1)
			length := int(b0&0x0F) + lzMinMatch
			start := d - off
			if off == 0 || start < base {
				return nil, 0, fmt.Errorf("%w: copy offset %d out of range", ErrCorrupt, off)
			}
			if off >= 8 {
				// Word by word, in order: each word's source lies wholly
				// behind its destination, though maybe in the word before.
				from, to := (*[24]byte)(buf[start:start+24:start+24]), (*[24]byte)(buf[d:d+24:d+24])
				binary.LittleEndian.PutUint64(to[0:], binary.LittleEndian.Uint64(from[0:]))
				binary.LittleEndian.PutUint64(to[8:], binary.LittleEndian.Uint64(from[8:]))
				binary.LittleEndian.PutUint64(to[16:], binary.LittleEndian.Uint64(from[16:]))
			} else {
				// Source and destination overlap: a byte at a time.
				for i := 0; i < length; i++ {
					buf[d+i] = buf[start+i]
				}
			}
			d += length
		}
	}

	// The last groups, short inputs and a dst without spare capacity: an
	// item at a time, every access checked, growing dst as needed.
	dst = buf[:d]
	for pos < len(body) && len(dst) < upto {
		if pos+2 > len(body) {
			return nil, 0, fmt.Errorf("%w: truncated control word", ErrCorrupt)
		}
		control := uint16(body[pos]) | uint16(body[pos+1])<<8
		pos += 2
		for bit := 0; bit < lzGroupItems && pos < len(body); bit++ {
			if control&1 == 1 {
				if pos+2 > len(body) {
					return nil, 0, fmt.Errorf("%w: truncated copy item", ErrCorrupt)
				}
				b0, b1 := body[pos], body[pos+1]
				pos += 2
				off := int(b0&0xF0)<<4 | int(b1)
				length := int(b0&0x0F) + lzMinMatch
				start := len(dst) - off
				if off == 0 || start < base {
					return nil, 0, fmt.Errorf("%w: copy offset %d out of range", ErrCorrupt, off)
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
	return dst, pos, nil
}
