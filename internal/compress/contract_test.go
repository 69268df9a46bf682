package compress

import (
	"bytes"
	"testing"
)

// TestCodecBorrowsItsBuffers holds every registered codec to the ownership
// half of the Codec contract by running it the way the machine does: src is
// a frame on loan that holds another page by the next call, dst is one
// scratch buffer recycled for ever, and what a call returns may depend on
// the bytes src holds during that call and on nothing else.
//
// Each dirty-scratch fuzz seed is compressed and decompressed twice, in
// opposite orders, through one lent buffer that is overwritten the moment a
// call returns and two recycled destinations. A result that aliases src
// changes under that overwrite; a codec that keeps src and looks at it again,
// or reads dst past its length, sees a different predecessor's bytes in the
// second order and answers differently.
func TestCodecBorrowsItsBuffers(t *testing.T) {
	pages := seedPages()
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			loan := make([]byte, 0, c.MaxCompressedSize(fuzzPageSize))
			comp := bytes.Repeat([]byte{0xFF}, cap(loan))
			plain := bytes.Repeat([]byte{0xFF}, fuzzPageSize)
			// lend runs f on b's bytes in the loan buffer and takes the
			// buffer back: whatever f returned has to survive that.
			lend := func(b []byte, f func(src []byte) []byte) []byte {
				src := append(loan[:0], b...)
				out := f(src)
				for i := range src {
					src[i] = ^src[i]
				}
				return out
			}
			blocks := make([][]byte, len(pages))
			visit := func(i int) {
				block := lend(pages[i], func(src []byte) []byte { return c.Compress(comp[:0], src) })
				if blocks[i] == nil {
					blocks[i] = c.Compress(nil, pages[i])
				}
				if !bytes.Equal(block, blocks[i]) {
					t.Fatalf("page %d: compressing a lent page into recycled scratch gave %d bytes that differ from the %d of a fresh call",
						i, len(block), len(blocks[i]))
				}
				page := lend(block, func(src []byte) []byte {
					out, err := c.Decompress(plain[:0], src)
					if err != nil {
						t.Fatalf("page %d: %v", i, err)
					}
					return out
				})
				if !bytes.Equal(page, pages[i]) {
					t.Fatalf("page %d: decompressing a lent block into a recycled frame gave %d bytes that differ from the page", i, len(page))
				}
			}
			for i := range pages {
				visit(i)
			}
			for i := len(pages) - 1; i >= 0; i-- {
				visit(i)
			}
		})
	}
}
