package machine

import (
	"bytes"
	"testing"

	"compcache/internal/core"
	"compcache/internal/swap"
)

// fuzzFixture compresses one known page and returns everything needed to
// attempt a decompression of an arbitrary fragment against its checksum.
func fuzzFixture(tb testing.TB) (m *Machine, want, cdata []byte, sum uint32) {
	tb.Helper()
	m, err := New(Default(1 << 20).WithCC())
	if err != nil {
		tb.Fatal(err)
	}
	want = make([]byte, m.Config().PageSize)
	copy(want, bytes.Repeat([]byte("the compression cache "), 200))
	cdata = m.codecFor(0).Compress(nil, want)
	return m, want, cdata, core.Checksum(cdata)
}

// FuzzFragmentIntegrity checks the integrity invariant end to end: a
// corrupted compressed fragment must never silently decompress to wrong page
// contents. Every mutation is either rejected (checksum mismatch or codec
// error) or — in the astronomically unlikely event it passes both — must
// reproduce the original page byte for byte.
func FuzzFragmentIntegrity(f *testing.F) {
	_, _, cdata, _ := fuzzFixture(f)
	f.Add(append([]byte(nil), cdata...)) // identity: must succeed
	bitflip := append([]byte(nil), cdata...)
	bitflip[len(bitflip)/2] ^= 0x10
	f.Add(bitflip)
	f.Add(cdata[:len(cdata)/2])                 // truncated
	f.Add(append(append([]byte(nil), cdata...), // extended
		0xde, 0xad, 0xbe, 0xef))
	f.Add([]byte{})
	f.Add([]byte{0x00})

	f.Fuzz(func(t *testing.T, frag []byte) {
		m, want, orig, sum := fuzzFixture(t)
		page := make([]byte, len(want))
		for i := range page {
			page[i] = 0xEE // stale contents that must never leak through
		}
		err := m.restoreInto(page, frag, true, sum, swap.PageKey{Seg: 0, Page: 0}, nil)
		if bytes.Equal(frag, orig) {
			if err != nil {
				t.Fatalf("pristine fragment rejected: %v", err)
			}
			if !bytes.Equal(page, want) {
				t.Fatal("pristine fragment decompressed to wrong contents")
			}
			return
		}
		if err == nil && !bytes.Equal(page, want) {
			t.Fatal("corrupted fragment silently decompressed to wrong page contents")
		}
		if err != nil && m.Faults().CorruptionsDetected == 0 {
			t.Fatal("rejection not counted as a detected corruption")
		}
	})
}
