package compress_test

import (
	"bytes"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/workload"
)

// checkedLZRW1 is LZRW1 for a machine under test: every page the machine
// compresses and every block it decompresses is also given to the reference,
// and disagreements are reported to the test.
type checkedLZRW1 struct {
	compress.LZRW1
	t                        *testing.T
	compressed, decompressed *int
}

func (checkedLZRW1) Name() string { return "lzrw1-checked" }

func (c checkedLZRW1) Compress(dst, src []byte) []byte {
	out := c.LZRW1.Compress(dst, src)
	if want := compress.RefLZRW1.Compress(nil, src); !bytes.Equal(out[len(dst):], want) {
		c.t.Errorf("page %d: compressed to %d bytes, reference %d", *c.compressed, len(out)-len(dst), len(want))
	}
	*c.compressed++
	return out
}

func (c checkedLZRW1) Decompress(dst, src []byte) ([]byte, error) {
	out, err := c.LZRW1.Decompress(dst, src)
	want, wantErr := compress.RefLZRW1.Decompress(nil, src)
	if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(out[len(dst):], want) {
		c.t.Errorf("block %d: decompressed to %d bytes (%v), reference %d (%v)",
			*c.decompressed, len(out)-len(dst), err, len(want), wantErr)
	}
	*c.decompressed++
	return out, err
}

// TestLZRW1MatchesReferenceOnWorkloadPages checks the byte-identity contract
// on the pages that matter: the ones the paper's applications actually evict
// and fault back, through the machine's recycled scratch buffer and its pool
// frames.
func TestLZRW1MatchesReferenceOnWorkloadPages(t *testing.T) {
	var compressed, decompressed int
	c := checkedLZRW1{t: t, compressed: &compressed, decompressed: &decompressed}
	compress.Register(c)
	defer compress.Unregister(c.Name())
	cfg := machine.Default(768 << 10).WithCC()
	cfg.CC.Codec = c.Name()
	for _, w := range []workload.Workload{
		&workload.Gold{Messages: 1500, WordsPerMessage: 24, VocabWords: 2000,
			Queries: 500, Phase: workload.GoldCold, Seed: 18},
		&workload.Compare{N: 1536, Band: 512, Seed: 18},
	} {
		before := compressed
		if _, err := workload.Measure(cfg, w); err != nil {
			t.Fatal(err)
		}
		if compressed == before {
			t.Errorf("%s compressed no page", w.Name())
		}
	}
	if decompressed == 0 {
		t.Error("no block was decompressed")
	}
}
