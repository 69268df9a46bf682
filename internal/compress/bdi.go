package compress

import (
	"encoding/binary"
	"fmt"
)

// BDI is a Base-Delta-Immediate codec in the style of Pekhimenko et al.
// (PACT 2012): memory lines whose values are numerically close to a common
// base — pointer arrays, counters, index tables — are stored as one base
// value plus an array of narrow deltas. The transform is a handful of integer
// subtractions per line, no searching and no history window, which is why the
// hardware proposals run it at cache-access latency. In this simulator it is
// the "hardware-class" ratio/speed point opposite LZSS on the codec axis.
//
// Format: one flag byte (flagCompress/flagCopy), then one scheme byte per
// 64-byte line followed by that scheme's payload:
//
//	bdiZero  — all-zero line, no payload
//	bdiRep8  — eight identical 8-byte words; payload is the word (8 bytes)
//	bdiB8D1  — 8-byte base +  7 × 1-byte deltas (payload 15 bytes)
//	bdiB8D2  — 8-byte base +  7 × 2-byte deltas (payload 22 bytes)
//	bdiB8D4  — 8-byte base +  7 × 4-byte deltas (payload 36 bytes)
//	bdiB4D1  — 4-byte base + 15 × 1-byte deltas (payload 19 bytes)
//	bdiB4D2  — 4-byte base + 15 × 2-byte deltas (payload 34 bytes)
//	bdiB2D1  — 2-byte base + 31 × 1-byte deltas (payload 33 bytes)
//	bdiRaw   — incompressible line stored verbatim (payload 64 bytes)
//	bdiTail  — final partial line (input length not a multiple of 64),
//	           stored verbatim to the end of the block; always last
//
// The base is the line's first word, so its own (zero) delta is not stored.
//
// The base is the line's first word at the scheme's width; deltas are
// two's-complement differences stored little-endian and sign-extended on
// decode. The encoder picks the smallest applicable payload per line. If the
// whole block would not beat len(src)+1 the stored fallback is used, so
// MaxCompressedSize is n+1 like the LZ codecs.
type BDI struct{}

const bdiLine = 64

const (
	bdiZero = iota
	bdiRep8
	bdiB8D1
	bdiB8D2
	bdiB8D4
	bdiB4D1
	bdiB4D2
	bdiB2D1
	bdiRaw
	bdiTail
)

// bdiPayload[s] is the payload length of scheme s (bdiTail is variable).
var bdiPayload = [bdiRaw + 1]int{
	bdiZero: 0, bdiRep8: 8,
	bdiB8D1: 15, bdiB8D2: 22, bdiB8D4: 36,
	bdiB4D1: 19, bdiB4D2: 34, bdiB2D1: 33,
	bdiRaw: bdiLine,
}

// Name reports "bdi".
func (BDI) Name() string { return "bdi" }

// MaxCompressedSize reports n+1 (stored fallback).
func (BDI) MaxCompressedSize(n int) int { return n + 1 }

// Compress appends the BDI-compressed form of src to dst.
func (BDI) Compress(dst, src []byte) []byte {
	base := len(dst)
	dst = append(dst, flagCompress)
	limit := base + len(src) + 1
	for off := 0; off < len(src); off += bdiLine {
		if off+bdiLine > len(src) {
			dst = append(dst, bdiTail)
			dst = append(dst, src[off:]...)
			break
		}
		dst = bdiEncodeLine(dst, src[off:off+bdiLine])
		if len(dst) > limit {
			return storedBlock(dst[:base], src)
		}
	}
	if len(dst) > limit {
		return storedBlock(dst[:base], src)
	}
	return dst
}

// bdiEncodeLine appends the smallest applicable scheme for one full line.
func bdiEncodeLine(dst, line []byte) []byte {
	zero := true
	for _, b := range line {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return append(dst, bdiZero)
	}
	first := binary.LittleEndian.Uint64(line)
	rep := true
	for i := 8; i < bdiLine; i += 8 {
		if binary.LittleEndian.Uint64(line[i:]) != first {
			rep = false
			break
		}
	}
	if rep {
		dst = append(dst, bdiRep8)
		return append(dst, line[:8]...)
	}
	// Try base+delta schemes from smallest payload to largest. The delta
	// buffer is a fixed-size stack array passed by pointer so the encoder
	// allocates nothing.
	var buf [bdiLine]byte
	type try struct{ scheme, width, dw int }
	for _, t := range [...]try{
		{bdiB8D1, 8, 1}, // 15 bytes
		{bdiB4D1, 4, 1}, // 19 bytes
		{bdiB8D2, 8, 2}, // 22 bytes
		{bdiB2D1, 2, 1}, // 33 bytes
		{bdiB4D2, 4, 2}, // 34 bytes
		{bdiB8D4, 8, 4}, // 36 bytes
	} {
		if n, ok := bdiDeltas(&buf, line, t.width, t.dw); ok {
			dst = append(dst, byte(t.scheme))
			dst = append(dst, line[:t.width]...)
			return append(dst, buf[:n]...)
		}
	}
	dst = append(dst, bdiRaw)
	return append(dst, line...)
}

// bdiDeltas writes the little-endian deltas of a line's width-byte words
// from its first word, truncated to dw bytes each, into buf. It reports the
// byte count written and false if any delta does not fit dw bytes as a
// signed value.
func bdiDeltas(buf *[bdiLine]byte, line []byte, width, dw int) (int, bool) {
	n := 0
	baseVal := bdiWord(line, 0, width)
	for i := width; i < bdiLine; i += width {
		d := bdiWord(line, i, width) - baseVal
		// Sign-extended truncation must round-trip.
		sd := int64(d)
		switch dw {
		case 1:
			if sd < -128 || sd > 127 {
				return 0, false
			}
			buf[n] = byte(sd)
			n++
		case 2:
			if sd < -32768 || sd > 32767 {
				return 0, false
			}
			binary.LittleEndian.PutUint16(buf[n:], uint16(sd))
			n += 2
		default: // 4
			if sd < -1<<31 || sd > 1<<31-1 {
				return 0, false
			}
			binary.LittleEndian.PutUint32(buf[n:], uint32(sd))
			n += 4
		}
	}
	return n, true
}

// bdiWord reads the width-byte little-endian word at off, sign-agnostic
// (arithmetic is modular, so unsigned works for both).
func bdiWord(b []byte, off, width int) uint64 {
	switch width {
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[off:]))
	default: // 8
		return binary.LittleEndian.Uint64(b[off:])
	}
}

// Decompress appends the decompressed form of a BDI block to dst.
func (BDI) Decompress(dst, src []byte) ([]byte, error) {
	body, stored, err := splitBlock(src)
	if err != nil {
		return nil, err
	}
	if stored {
		return append(dst, body...), nil
	}
	pos := 0
	for pos < len(body) {
		scheme := int(body[pos])
		pos++
		if scheme == bdiTail {
			return append(dst, body[pos:]...), nil
		}
		if scheme > bdiRaw {
			return nil, fmt.Errorf("%w: bad bdi scheme %d", ErrCorrupt, scheme)
		}
		pl := bdiPayload[scheme]
		if pos+pl > len(body) {
			return nil, fmt.Errorf("%w: truncated bdi line payload", ErrCorrupt)
		}
		payload := body[pos : pos+pl]
		pos += pl
		var err error
		dst, err = bdiDecodeLine(dst, scheme, payload)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// bdiDecodeLine appends one reconstructed 64-byte line.
func bdiDecodeLine(dst []byte, scheme int, payload []byte) ([]byte, error) {
	var line [bdiLine]byte
	switch scheme {
	case bdiZero:
		// line is already zero
	case bdiRep8:
		for i := 0; i < bdiLine; i += 8 {
			copy(line[i:], payload)
		}
	case bdiRaw:
		copy(line[:], payload)
	case bdiB8D1, bdiB8D2, bdiB8D4, bdiB4D1, bdiB4D2, bdiB2D1:
		width, dw := bdiGeometry(scheme)
		baseVal := bdiWord(payload, 0, width)
		bdiPutWord(line[:], 0, width, baseVal)
		dp := width
		for i := width; i < bdiLine; i += width {
			var d int64
			switch dw {
			case 1:
				d = int64(int8(payload[dp]))
			case 2:
				d = int64(int16(binary.LittleEndian.Uint16(payload[dp:])))
			default:
				d = int64(int32(binary.LittleEndian.Uint32(payload[dp:])))
			}
			dp += dw
			bdiPutWord(line[:], i, width, baseVal+uint64(d))
		}
	default:
		return nil, fmt.Errorf("%w: bad bdi scheme %d", ErrCorrupt, scheme)
	}
	return append(dst, line[:]...), nil
}

// bdiGeometry maps a base+delta scheme to its (base width, delta width).
func bdiGeometry(scheme int) (width, dw int) {
	switch scheme {
	case bdiB8D1:
		return 8, 1
	case bdiB8D2:
		return 8, 2
	case bdiB8D4:
		return 8, 4
	case bdiB4D1:
		return 4, 1
	case bdiB4D2:
		return 4, 2
	default: // bdiB2D1
		return 2, 1
	}
}

// bdiPutWord writes the width-byte little-endian word at off (truncating).
func bdiPutWord(b []byte, off, width int, v uint64) {
	switch width {
	case 2:
		binary.LittleEndian.PutUint16(b[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[off:], v)
	}
}
