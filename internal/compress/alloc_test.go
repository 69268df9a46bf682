package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// The machine's page-out/page-in hot path hands every codec a preallocated
// scratch buffer and expects the codec to stay inside it: a per-page heap
// allocation in Compress or Decompress turns the simulated "fast" memory
// tier into a GC treadmill on the host. Each codec must therefore run
// allocation-free once its internal pools are warm and dst has capacity for
// the worst case.
func TestCodecZeroAllocs(t *testing.T) {
	pageSize := 4096
	rng := rand.New(rand.NewSource(7))
	pages := map[string][]byte{
		"zero":   make([]byte, pageSize),
		"text":   bytes.Repeat([]byte("page table entry walk "), pageSize/22+1)[:pageSize],
		"random": make([]byte, pageSize),
		"mixed":  mixedPage(),
	}
	rng.Read(pages["random"])

	for _, c := range allCodecs(t) {
		c := c
		for kind, page := range pages {
			page := page
			t.Run(c.Name()+"/"+kind, func(t *testing.T) {
				comp := make([]byte, 0, c.MaxCompressedSize(pageSize))
				plain := make([]byte, 0, pageSize)
				// Warm-up primes internal pools (LZSS's hash-chain scratch).
				comp = c.Compress(comp[:0], page)
				if n := testing.AllocsPerRun(100, func() {
					comp = c.Compress(comp[:0], page)
				}); n != 0 {
					t.Errorf("Compress allocates %v times per run", n)
				}
				if n := testing.AllocsPerRun(100, func() {
					out, err := c.Decompress(plain[:0], comp)
					if err != nil {
						t.Fatal(err)
					}
					plain = out[:0]
				}); n != 0 {
					t.Errorf("Decompress allocates %v times per run", n)
				}
				out, err := c.Decompress(plain[:0], comp)
				if err != nil || !bytes.Equal(out, page) {
					t.Fatalf("round trip broke under alloc measurement: %v", err)
				}
			})
		}
	}
}
