package compress

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// refFPC is the FPC decoder as it stood before it was rewritten for host
// speed, kept verbatim as the differential oracle: the decoder must give the
// same bytes and the same errors on every input (FuzzFPCMatchesReference).
// FPC's encoder was not rewritten, so there is no reference Compress.
type refFPC struct{}

// Decompress appends the decompressed form of an FPC block to dst.
func (refFPC) Decompress(dst, src []byte) ([]byte, error) {
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
	if len(body) < fpcLenBytes {
		return nil, fmt.Errorf("%w: truncated fpc header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[fpcLenBytes:]
	words, tail := n/4, n%4
	pos, ctrl, haveHi := 0, byte(0), false
	var wbuf [4]byte
	for w := 0; w < words; {
		var code byte
		if haveHi {
			code, haveHi = ctrl>>4, false
		} else {
			if pos >= len(body) {
				return nil, fmt.Errorf("%w: fpc input exhausted at word %d/%d", ErrCorrupt, w, words)
			}
			ctrl, code, haveHi = body[pos], body[pos]&0x0F, true
			pos++
		}
		need := 0
		switch code {
		case fpcZero:
		case fpcZeroRun, fpcSE8, fpcRepByte:
			need = 1
		case fpcSE16, fpcLoZero, fpcHalfSE8:
			need = 2
		case fpcRaw:
			need = 4
		default:
			return nil, fmt.Errorf("%w: bad fpc code %d", ErrCorrupt, code)
		}
		if pos+need > len(body) {
			return nil, fmt.Errorf("%w: truncated fpc payload", ErrCorrupt)
		}
		payload := body[pos : pos+need]
		pos += need
		var v uint32
		switch code {
		case fpcZero:
			v = 0
		case fpcZeroRun:
			run := int(payload[0])
			if run < 2 || w+run > words {
				return nil, fmt.Errorf("%w: bad fpc zero-run length %d", ErrCorrupt, run)
			}
			for i := 0; i < run; i++ {
				dst = append(dst, 0, 0, 0, 0)
			}
			w += run
			continue
		case fpcSE8:
			v = uint32(int32(int8(payload[0])))
		case fpcSE16:
			v = uint32(int32(int16(binary.LittleEndian.Uint16(payload))))
		case fpcLoZero:
			v = uint32(binary.LittleEndian.Uint16(payload)) << 16
		case fpcHalfSE8:
			v = uint32(uint16(int16(int8(payload[0])))) |
				uint32(uint16(int16(int8(payload[1]))))<<16
		case fpcRepByte:
			v = uint32(payload[0]) * 0x01010101
		case fpcRaw:
			v = binary.LittleEndian.Uint32(payload)
		}
		binary.LittleEndian.PutUint32(wbuf[:], v)
		dst = append(dst, wbuf[:]...)
		w++
	}
	if haveHi && ctrl>>4 != 0 {
		return nil, fmt.Errorf("%w: nonzero dangling fpc nibble", ErrCorrupt)
	}
	if len(body)-pos != tail {
		return nil, fmt.Errorf("%w: fpc tail is %d bytes, want %d", ErrCorrupt, len(body)-pos, tail)
	}
	return append(dst, body[pos:]...), nil
}

// FuzzFPCMatchesReference is the byte-identity contract for FPC's decoder:
// on arbitrary bytes and on their compressed form, the same decoded bytes
// and the same errors as the reference, whatever the destination buffer
// looked like. The malformed blocks of fpcBadBlocks are seeds, so every
// error's text is compared on each run of the test.
func FuzzFPCMatchesReference(f *testing.F) {
	fuzzSeeds(f)
	for _, bad := range fpcBadBlocks {
		f.Add(bad.block)
	}
	var fpc FPC
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, block := range [][]byte{data, fpc.Compress(nil, data)} {
			checkDecompressMatchesReference(t, fpc, refFPC{}, block)
		}
	})
}
