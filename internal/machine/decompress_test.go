package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/core"
	"compcache/internal/fault"
	"compcache/internal/swap"
	"compcache/internal/vm"
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
	if err := m.restoreInto(page, cdata, true, core.Checksum(cdata), swap.PageKey{Seg: seg, Page: 3}, nil); err != nil {
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
	if err := m.restoreInto(page, cdata, true, core.Checksum(cdata), swap.PageKey{Seg: 0, Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Fatal("round trip through restoreInto corrupted the page")
	}
}

// TestLateRejectionIsTyped: a page is restored only as far as the program
// reads it, so a fragment whose checksum holds and whose first groups decode
// can be rejected by the codec only when a later read reaches the bad group.
// The fault that could have recovered the page from below is over by then,
// and the bytes past the prefix were never the page's: the read that reaches
// them must kill the simulated process with a typed error — unrecoverable,
// wrapping the codec's rejection as a corruption — and read nothing. A
// ccforget build restores every page whole, so there the first read meets
// the bad group and dies the same death.
func TestLateRejectionIsTyped(t *testing.T) {
	fake := newFakeTier()
	m := newMachine(t, ccConfig(), WithRemote(fake))
	s := m.NewSegment("heap", 4*4096)
	p := s.seg.Page(0)
	page := bytes.Repeat([]byte("a page that is read late "), 4096/25+1)[:4096]
	s.Write(0, page)
	evict(t, m, p)

	// Forge the travel form: the group holding byte 2048 of the page starts
	// with a copy item of offset 0, and the fragment carries its own sum, so
	// the tier serves it as current.
	forged := m.codecFor(p.Key.Seg).Compress(nil, page)
	body := forged[1:]
	pos, out := 0, 0
	for out < 2048 {
		control := uint(body[pos]) | uint(body[pos+1])<<8
		pos += 2
		for range 16 {
			if control&1 != 0 {
				out, pos = out+int(body[pos]&0x0F)+3, pos+2
			} else {
				out, pos = out+1, pos+1
			}
			control >>= 1
		}
	}
	copy(body[pos:], []byte{1, 0, 0, 0})
	if _, err := m.codecFor(p.Key.Seg).Decompress(nil, forged); err == nil {
		t.Fatal("the forged fragment decodes")
	}
	m.CC.Drop(p.Key)
	if err := fake.Put(swap.Item{Key: p.Key, Data: forged, Compressed: true, Sum: core.Checksum(forged)}); err != nil {
		t.Fatal(err)
	}
	p.State = vm.Swapped

	if keepForms {
		if got, want := s.ReadWord(8), binary.LittleEndian.Uint64(page[8:]); got != want || m.Err() != nil {
			t.Fatalf("the word in front of the bad group read %#x (%v), want %#x", got, m.Err(), want)
		}
		if p.State != vm.Partial {
			t.Fatalf("the page read at one word is %v, want partial", p.State)
		}
		if got := s.ReadWord(4088); got != 0 {
			t.Errorf("the word past the bad group read %#x on a dead machine", got)
		}
	} else if got := s.ReadWord(8); got != 0 {
		t.Errorf("the word in front of the bad group read %#x on a dead machine", got)
	}
	err := m.Err()
	var corrupt *fault.CorruptionError
	if !fault.IsUnrecoverable(err) || !errors.As(err, &corrupt) || !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("the read past the bad group died of %v; want an unrecoverable corruption from the codec", err)
	}
	if m.Faults().CorruptionsDetected != 1 {
		t.Errorf("%d corruptions detected, want the one", m.Faults().CorruptionsDetected)
	}
	if got := s.ReadWord(8); got != 0 {
		t.Errorf("the dead process read %#x", got)
	}
}
