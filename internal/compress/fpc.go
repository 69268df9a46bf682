package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FPC is a Frequent-Pattern Compression codec after Alameldeen & Wood
// (UW-Madison TR-1500, 2004): each 32-bit word is matched against a small
// set of frequent patterns — zeros, narrow sign-extended integers, a
// repeated byte — and replaced by a 4-bit prefix code plus only the word's
// significant bytes. Like BDI it needs no history window or searching, so
// the hardware proposals pipeline it at a few cycles per word; here it is
// the second "hardware-class" point on the codec axis, trading a little of
// BDI's speed for pattern coverage that does not require whole lines to
// cooperate.
//
// Format: one flag byte (flagCompress/flagCopy), then a 4-byte little-endian
// original length, then a sequence of control bytes each holding two 4-bit
// prefix codes (low nibble first). Each code's payload follows the control
// byte in code order; the next control byte starts after the second code's
// payload. Codes:
//
//	fpcZero    — zero word, no payload
//	fpcZeroRun — run of 2..255 zero words; payload one count byte
//	fpcSE8     — word is a sign-extended  8-bit value; payload 1 byte
//	fpcSE16    — word is a sign-extended 16-bit value; payload 2 bytes (LE)
//	fpcLoZero  — lower halfword zero; payload is the upper halfword (2 bytes)
//	fpcHalfSE8 — each halfword is a sign-extended 8-bit value; payload 2 bytes
//	fpcRepByte — four identical bytes; payload 1 byte
//	fpcRaw     — uncompressed word; payload 4 bytes (LE order preserved)
//
// When the word count is odd the final control byte's high nibble must be
// zero (fpcZero is never a valid dangling code since the count is exhausted,
// so the decoder ignores it). The 0..3 bytes of input beyond the last whole
// word are stored verbatim at the end of the block and their length is
// implied by the header. If the encoded block would not beat len(src)+1 the
// stored fallback is used, so MaxCompressedSize is n+1.
//
// Decompress spends fewer host cycles than the plain coding it replaced but
// must give the same bytes and the same errors; refFPC (in the tests) is that
// coding. Like LZRW1's, it is a fast loop over whole units — here control
// bytes — in front of a careful per-code loop that checks every access.
type FPC struct{}

const (
	fpcZero = iota
	fpcZeroRun
	fpcSE8
	fpcSE16
	fpcLoZero
	fpcHalfSE8
	fpcRepByte
	fpcRaw

	fpcLenBytes   = 4
	fpcMaxZeroRun = 255
)

// Name reports "fpc".
func (FPC) Name() string { return "fpc" }

// MaxCompressedSize reports n+1 (stored fallback).
func (FPC) MaxCompressedSize(n int) int { return n + 1 }

// Compress appends the FPC-compressed form of src to dst.
func (FPC) Compress(dst, src []byte) []byte {
	base := len(dst)
	limit := base + len(src) + 1
	dst = append(dst, flagCompress)
	var lenHdr [fpcLenBytes]byte
	binary.LittleEndian.PutUint32(lenHdr[:], uint32(len(src)))
	dst = append(dst, lenHdr[:]...)

	words := len(src) / 4
	ctrlPos := -1 // position of a control byte with a free high nibble
	var pl [4]byte
	for w := 0; w < words && len(dst) <= limit; {
		v := binary.LittleEndian.Uint32(src[w*4:])
		var code int
		np := 0 // payload length in pl
		adv := 1
		if v == 0 {
			run := 1
			for run < fpcMaxZeroRun && w+run < words &&
				binary.LittleEndian.Uint32(src[(w+run)*4:]) == 0 {
				run++
			}
			if run >= 2 {
				code, pl[0], np, adv = fpcZeroRun, byte(run), 1, run
			} else {
				code = fpcZero
			}
		} else {
			switch {
			case v == uint32(int32(int8(v))):
				code, pl[0], np = fpcSE8, byte(v), 1
			case v == uint32(int32(int16(v))):
				code, np = fpcSE16, 2
				binary.LittleEndian.PutUint16(pl[:], uint16(v))
			case v&0xFFFF == 0:
				code, np = fpcLoZero, 2
				binary.LittleEndian.PutUint16(pl[:], uint16(v>>16))
			case uint16(v) == uint16(int16(int8(v))) && uint16(v>>16) == uint16(int16(int8(v>>16))):
				code, pl[0], pl[1], np = fpcHalfSE8, byte(v), byte(v>>16), 2
			case v == uint32(v&0xFF)*0x01010101:
				code, pl[0], np = fpcRepByte, byte(v), 1
			default:
				code, np = fpcRaw, 4
				binary.LittleEndian.PutUint32(pl[:], v)
			}
		}
		if ctrlPos < 0 {
			ctrlPos = len(dst)
			dst = append(dst, byte(code))
		} else {
			dst[ctrlPos] |= byte(code) << 4
			ctrlPos = -1
		}
		dst = append(dst, pl[:np]...)
		w += adv
	}
	dst = append(dst, src[words*4:]...) // raw tail, length implied by header
	if len(dst) > limit {
		return storedBlock(dst[:base], src)
	}
	return dst
}

// fpcNeed is each valid code's payload length in bytes; both decode loops
// read it.
var fpcNeed = [fpcRaw + 1]int{
	fpcZero: 0, fpcZeroRun: 1, fpcSE8: 1, fpcSE16: 2,
	fpcLoZero: 2, fpcHalfSE8: 2, fpcRepByte: 1, fpcRaw: 4,
}

// fpcWord expands a one-word code — any valid code but fpcZeroRun — from a
// window that starts with its payload. Both decode loops call it; it has to
// stay small enough to inline into the fast one.
func fpcWord(code byte, p *[4]byte) uint32 {
	switch code {
	case fpcSE8:
		return uint32(int32(int8(p[0])))
	case fpcSE16:
		return uint32(int32(int16(binary.LittleEndian.Uint16(p[:]))))
	case fpcLoZero:
		return uint32(binary.LittleEndian.Uint16(p[:])) << 16
	case fpcHalfSE8:
		return uint32(uint16(int16(int8(p[0])))) | uint32(uint16(int16(int8(p[1]))))<<16
	case fpcRepByte:
		return uint32(p[0]) * 0x01010101
	case fpcRaw:
		return binary.LittleEndian.Uint32(p[:])
	}
	return 0 // fpcZero
}

// Decompress appends the decompressed form of an FPC block to dst.
func (FPC) Decompress(dst, src []byte) ([]byte, error) {
	body, stored, err := splitBlock(src)
	if err != nil {
		return nil, err
	}
	if stored {
		return append(dst, body...), nil
	}
	out, _, err := fpcDecode(dst, body, len(dst), 0, math.MaxInt)
	return out, err
}

// DecompressPrefix is the prefix decoder (see PrefixDecoder): it stops at the
// first control byte at or past upto.
func (FPC) DecompressPrefix(dst, src []byte, at Prefix, upto int) ([]byte, Prefix, error) {
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
	out, pos, err := fpcDecode(dst, body, 0, at.in, upto)
	if err != nil {
		return nil, at, err
	}
	return out, Prefix{in: pos, done: pos < 0}, nil
}

// fpcDecode decodes an FPC block's body — its length word, then its codes —
// onto dst, whose bytes from base on are the block's output so far, a whole
// number of words that the codes before pos produced; pos is 0 or a control
// byte's offset past the length word. It stops at the end of the block,
// returning pos -1, or at the first control byte where the output reaches
// upto bytes of dst, returning that byte's offset.
func fpcDecode(dst, body []byte, base, pos, upto int) ([]byte, int, error) {
	if len(body) < fpcLenBytes {
		return nil, 0, fmt.Errorf("%w: truncated fpc header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[fpcLenBytes:]
	words, tail := n/4, n%4

	// Whole control bytes, writing by index into dst's spare capacity (FPC
	// never reads its output, so nothing there needs zeroing first). A step
	// runs only while the control byte and the largest payload pair (two raw
	// words) lie in body, two words fit in the capacity and two words
	// remain; a pair of raw words is then one 8-byte window move. A code the
	// careful loop has to see — one above fpcRaw, a zero run that is too
	// short, runs past the word count or past the capacity, or a word past
	// the capacity — stops the loop before it is consumed, leaving pos, ctrl,
	// haveHi, w and d where the careful loop would have them: at the control
	// byte, or between its two codes with haveHi set.
	buf := dst[:cap(dst)]
	d := len(dst)
	ctrl, haveHi, w := byte(0), false, (d-base)/4
fast:
	for d < upto && pos+1+2*4 <= len(body) && d+2*4 <= len(buf) && w+2 <= words {
		c := body[pos]
		if c == fpcRaw<<4|fpcRaw {
			*(*[8]byte)(buf[d : d+8 : d+8]) = *(*[8]byte)(body[pos+1 : pos+9 : pos+9])
			pos, d, w = pos+9, d+8, w+2
			continue
		}
		// The low code, then the high one, each committed to the state as
		// soon as it is decoded.
		for hi := false; ; hi = true {
			code, p := c&0x0F, pos+1
			if hi {
				code, p = c>>4, pos
			}
			if code == fpcZeroRun {
				run := int(body[p])
				if run < 2 || w+run > words || d+4*run > len(buf) {
					break fast
				}
				clear(buf[d : d+4*run])
				d, w = d+4*run, w+run
			} else {
				if code > fpcRaw || d+4 > len(buf) {
					break fast
				}
				binary.LittleEndian.PutUint32(buf[d:d+4], fpcWord(code, (*[4]byte)(body[p:p+4:p+4])))
				d, w = d+4, w+1
			}
			pos, ctrl, haveHi = p+fpcNeed[code], c, !hi
			if hi {
				break
			}
			if w == words {
				break fast // the high nibble dangles
			}
		}
	}

	// The rest a code at a time, every access checked, growing dst as
	// needed, to the next control byte at or past upto. This loop is the
	// definition of every error.
	dst = buf[:d]
	for w < words {
		var code byte
		if haveHi {
			code, haveHi = ctrl>>4, false
		} else {
			if len(dst) >= upto {
				return dst, pos, nil
			}
			if pos >= len(body) {
				return nil, 0, fmt.Errorf("%w: fpc input exhausted at word %d/%d", ErrCorrupt, w, words)
			}
			ctrl, code, haveHi = body[pos], body[pos]&0x0F, true
			pos++
		}
		if code > fpcRaw {
			return nil, 0, fmt.Errorf("%w: bad fpc code %d", ErrCorrupt, code)
		}
		need := fpcNeed[code]
		if pos+need > len(body) {
			return nil, 0, fmt.Errorf("%w: truncated fpc payload", ErrCorrupt)
		}
		var payload [4]byte
		copy(payload[:], body[pos:pos+need])
		pos += need
		if code == fpcZeroRun {
			run := int(payload[0])
			if run < 2 || w+run > words {
				return nil, 0, fmt.Errorf("%w: bad fpc zero-run length %d", ErrCorrupt, run)
			}
			dst = append(dst, lzZero[:4*run]...)
			w += run
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, fpcWord(code, &payload))
		w++
	}
	if haveHi && ctrl>>4 != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero dangling fpc nibble", ErrCorrupt)
	}
	if len(body)-pos != tail {
		return nil, 0, fmt.Errorf("%w: fpc tail is %d bytes, want %d", ErrCorrupt, len(body)-pos, tail)
	}
	return append(dst, body[pos:]...), -1, nil
}
