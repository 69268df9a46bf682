package machine

import (
	"bytes"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/core"
	"compcache/internal/swap"
)

// growingCodec decompresses correctly but ignores the destination buffer,
// returning a freshly allocated slice — the behaviour of any append-style
// codec that transiently grows past cap(dst). restoreInto must detect
// that the result no longer aliases the page buffer and copy it back.
type growingCodec struct{}

func (growingCodec) Name() string                    { return "growing-test" }
func (growingCodec) MaxCompressedSize(n int) int     { return n }
func (growingCodec) Compress(dst, src []byte) []byte { return append(dst, src...) }
func (growingCodec) Decompress(dst, src []byte) ([]byte, error) {
	out := make([]byte, 0, 2*len(src)+1) // never aliases dst
	return append(out, src...), nil
}

func TestDecompressIntoCopiesBackNonAliasedResult(t *testing.T) {
	m, err := New(Default(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	const seg = int32(7)
	m.segCodec = append(make([]compress.Codec, seg), growingCodec{})

	want := make([]byte, m.Config().PageSize)
	for i := range want {
		want[i] = byte(i * 31)
	}
	cdata := append([]byte(nil), want...)

	// A page buffer with exactly page-size capacity, pre-filled with stale
	// contents: the codec above returns a fresh array, so without the
	// copy-back the stale bytes would survive.
	page := make([]byte, m.Config().PageSize)
	for i := range page {
		page[i] = 0xEE
	}
	if err := m.restoreInto(page, cdata, true, core.Checksum(cdata), swap.PageKey{Seg: seg, Page: 3}, plainForm{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Fatal("page buffer kept stale contents after non-aliased decompression")
	}
}

func TestDecompressIntoAliasedResultUnchanged(t *testing.T) {
	// The common case — the codec fills the provided buffer in place — must
	// keep working with real codecs.
	m, err := New(Default(1 << 20).WithCC())
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("compression cache "), 300)[:m.Config().PageSize]
	codec := m.codecFor(0)
	cdata := codec.Compress(nil, want)
	page := make([]byte, m.Config().PageSize)
	if err := m.restoreInto(page, cdata, true, core.Checksum(cdata), swap.PageKey{Seg: 0, Page: 0}, plainForm{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Fatal("round trip through restoreInto corrupted the page")
	}
}
