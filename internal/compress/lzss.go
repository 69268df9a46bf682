package compress

import (
	"fmt"
	"sync"
)

// LZSS is a higher-effort LZ77 codec: a 32-KByte window searched with hash
// chains, long matches, and the same stored-block fallback as LZRW1. It
// compresses meaningfully better than LZRW1 and decompresses just as fast,
// at several times the compression cost — the "asymmetric" profile §2.2
// attributes to the Xerox PARC work on compressed paging of read-mostly
// data, where compression happens rarely and decompression often. Together
// with LZRW1 it gives the per-data-type codec choice a real axis: speed
// versus ratio.
//
// Format: one flag byte (flagCompress/flagCopy), then groups of 8 items
// preceded by a control byte (LSB first; 0 = literal byte, 1 = copy item).
// A copy item is a 16-bit little-endian (offset-1) followed by a length
// byte encoding length-4; a length byte of 255 is followed by one extension
// byte, so matches run 4..514 bytes at offsets 1..32768.
type LZSS struct{}

const (
	lzssMinMatch = 4
	lzssMaxOff   = 1 << 15 // 32 KB window
	lzssHashBits = 14
	lzssHashSize = 1 << lzssHashBits
	lzssMaxChain = 32 // search effort bound
	// length byte encodes len-lzssMinMatch; 255 adds an extension byte.
	lzssLenCap = 255
)

// Name reports "lzss".
func (LZSS) Name() string { return "lzss" }

// MaxCompressedSize reports n+1 (stored fallback).
func (LZSS) MaxCompressedSize(n int) int { return n + 1 }

func lzssHash(b []byte) uint32 {
	// Four-byte multiplicative hash.
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return (v * 2654435761) >> (32 - lzssHashBits)
}

// lzssScratch holds one Compress call's hash-chain state. The tables are
// pooled so steady-state compression allocates nothing; determinism is
// preserved because head is fully reset per call (head[h] stores position+1,
// 0 meaning empty, so the reset is a plain clear) and prev[i] is always
// written before position i becomes reachable through any chain — stale
// entries from an earlier call are never read.
type lzssScratch struct {
	head [lzssHashSize]int32
	prev []int32
}

var lzssPool = sync.Pool{New: func() any { return new(lzssScratch) }}

// Compress appends the LZSS-compressed form of src to dst.
func (LZSS) Compress(dst, src []byte) []byte {
	base := len(dst)
	if len(src) == 0 {
		return append(dst, flagCompress)
	}
	limit := base + len(src) + 1
	dst = append(dst, flagCompress)

	// Hash chains: head[h]-1 is the most recent position with hash h (0 =
	// empty chain); prev[i] links position i to the previous position with
	// the same hash, again offset by one.
	sc := lzssPool.Get().(*lzssScratch)
	defer lzssPool.Put(sc)
	head := &sc.head
	for i := range head {
		head[i] = 0
	}
	if cap(sc.prev) < len(src) {
		sc.prev = make([]int32, len(src))
	}
	prev := sc.prev[:len(src)]

	ctrlPos := len(dst)
	dst = append(dst, 0)
	var control byte
	nItems := 0

	flush := func() {
		dst[ctrlPos] = control
	}
	pos := 0
	for pos < len(src) {
		if len(dst)+4 > limit {
			return storedBlock(dst[:base], src)
		}
		bestLen, bestOff := 0, 0
		if pos+lzssMinMatch <= len(src) {
			h := lzssHash(src[pos:])
			cand := int(head[h]) - 1
			maxLen := len(src) - pos
			for depth := 0; cand >= 0 && depth < lzssMaxChain; depth++ {
				off := pos - cand
				if off > lzssMaxOff {
					break
				}
				// Quick reject on the byte past the current best.
				if bestLen > 0 && (bestLen >= maxLen || src[cand+bestLen] != src[pos+bestLen]) {
					cand = int(prev[cand]) - 1
					continue
				}
				l := 0
				for l < maxLen && src[cand+l] == src[pos+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestOff = l, off
					if l >= maxLen {
						break
					}
				}
				cand = int(prev[cand]) - 1
			}
			prev[pos] = head[h]
			head[h] = int32(pos) + 1
		}
		if bestLen >= lzssMinMatch {
			// Copy item: 16-bit little-endian offset-1, then length.
			o := bestOff - 1
			l := bestLen - lzssMinMatch
			dst = append(dst, byte(o), byte(o>>8))
			if l >= lzssLenCap {
				ext := l - lzssLenCap
				if ext > 255 {
					ext = 255
					l = lzssLenCap + 255
					bestLen = l + lzssMinMatch
				}
				dst = append(dst, byte(lzssLenCap), byte(ext))
			} else {
				dst = append(dst, byte(l))
			}
			// Insert the skipped positions into the chains so later matches
			// can land inside this one.
			end := pos + bestLen
			for p := pos + 1; p < end && p+lzssMinMatch <= len(src); p++ {
				h := lzssHash(src[p:])
				prev[p] = head[h]
				head[h] = int32(p) + 1
			}
			pos = end
			control |= 1 << uint(nItems)
		} else {
			dst = append(dst, src[pos])
			pos++
		}
		nItems++
		if nItems == 8 {
			flush()
			control, nItems = 0, 0
			if pos < len(src) {
				if len(dst)+1 > limit {
					return storedBlock(dst[:base], src)
				}
				ctrlPos = len(dst)
				dst = append(dst, 0)
			}
		}
	}
	if nItems > 0 {
		flush()
	} else if ctrlPos == len(dst)-1 {
		dst = dst[:len(dst)-1]
	}
	if len(dst) > limit {
		return storedBlock(dst[:base], src)
	}
	return dst
}

// Decompress appends the decompressed form of an LZSS block to dst.
func (LZSS) Decompress(dst, src []byte) ([]byte, error) {
	body, stored, err := splitBlock(src)
	if err != nil {
		return nil, err
	}
	if stored {
		return append(dst, body...), nil
	}
	base := len(dst)
	pos := 0
	for pos < len(body) {
		control := body[pos]
		pos++
		for bit := 0; bit < 8 && pos < len(body); bit++ {
			if control&(1<<uint(bit)) != 0 {
				if pos+3 > len(body) {
					return nil, fmt.Errorf("%w: truncated copy item", ErrCorrupt)
				}
				off := (int(body[pos]) | int(body[pos+1])<<8) + 1
				length := int(body[pos+2]) + lzssMinMatch
				pos += 3
				if body[pos-1] == lzssLenCap {
					if pos >= len(body) {
						return nil, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
					}
					length += int(body[pos])
					pos++
				}
				start := len(dst) - off
				if start < base {
					return nil, fmt.Errorf("%w: copy offset %d out of range", ErrCorrupt, off)
				}
				for i := 0; i < length; i++ {
					dst = append(dst, dst[start+i])
				}
			} else {
				dst = append(dst, body[pos])
				pos++
			}
		}
	}
	return dst, nil
}
