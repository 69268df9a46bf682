package compress_test

import (
	"bytes"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/workload"
)

// reference is the plain coding a host-speed codec is held to: always a
// decoder, and an encoder too where the encoder was rewritten.
type reference interface {
	Decompress(dst, src []byte) ([]byte, error)
}

// checked is a codec for a machine under test: every page the machine
// compresses and every block it decompresses is also given to the
// reference, and disagreements are reported to the test.
type checked struct {
	compress.Codec
	ref                      reference
	t                        *testing.T
	compressed, decompressed *int
}

func (c checked) Name() string { return c.Codec.Name() + "-checked" }

func (c checked) Compress(dst, src []byte) []byte {
	out := c.Codec.Compress(dst, src)
	if ref, ok := c.ref.(interface{ Compress(dst, src []byte) []byte }); ok {
		if want := ref.Compress(nil, src); !bytes.Equal(out[len(dst):], want) {
			c.t.Errorf("page %d: compressed to %d bytes, reference %d", *c.compressed, len(out)-len(dst), len(want))
		}
	}
	*c.compressed++
	return out
}

func (c checked) Decompress(dst, src []byte) ([]byte, error) {
	out, err := c.Codec.Decompress(dst, src)
	want, wantErr := c.ref.Decompress(nil, src)
	if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(out[len(dst):], want) {
		c.t.Errorf("block %d: decompressed to %d bytes (%v), reference %d (%v)",
			*c.decompressed, len(out)-len(dst), err, len(want), wantErr)
	}
	*c.decompressed++
	return out, err
}

// TestCodecsMatchReferenceOnWorkloadPages checks the byte-identity contract
// of both host-speed codecs on the pages that matter: the ones the paper's
// applications actually evict and fault back, through the machine's recycled
// scratch buffer and its pool frames.
func TestCodecsMatchReferenceOnWorkloadPages(t *testing.T) {
	for _, tc := range []struct {
		codec compress.Codec
		ref   reference
	}{
		{compress.LZRW1{}, compress.RefLZRW1},
		{compress.FPC{}, compress.RefFPC},
	} {
		t.Run(tc.codec.Name(), func(t *testing.T) {
			var compressed, decompressed int
			c := checked{Codec: tc.codec, ref: tc.ref, t: t, compressed: &compressed, decompressed: &decompressed}
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
		})
	}
}
