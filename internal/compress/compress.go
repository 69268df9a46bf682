// Package compress provides the page-compression codecs used by the
// compression cache.
//
// The paper compresses 4-KByte VM pages with Ross Williams's LZRW1 algorithm
// (Data Compression Conference, 1991), chosen because it is fast enough for
// on-line use while compressing typical page data 2:1–4:1. This package
// contains a from-scratch Go implementation of the LZRW1 format, a
// higher-effort LZSS variant, two hardware-inspired codecs (bdi and fpc,
// after Pekhimenko's Base-Delta-Immediate and Alameldeen & Wood's
// Frequent-Pattern Compression), two simpler codecs (run-length and null),
// and a registry so different data types can use different algorithms, one
// of the design requirements in §3 of the paper ("it should allow different
// compression algorithms to be used for different types of data").
package compress

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec compresses and decompresses byte blocks. Implementations must be
// deterministic and safe for concurrent use by multiple goroutines (they may
// not retain state across calls; scratch space is allocated per call, pooled
// internally, or passed explicitly).
//
// Determinism extends to recycled destination buffers: Compress(dst, src)
// must produce the same bytes whether dst[:0] re-slices a buffer full of
// stale garbage or is freshly allocated — implementations may never read
// dst's backing array beyond len(dst). The machine's hot path hands every
// codec a per-machine scratch buffer, so this is a load-bearing contract,
// enforced by FuzzCompressDirtyScratch.
//
// Decompress(dst, src) is held to the same rule from the other side: it may
// write dst[len(dst):cap(dst)] — all of it, as scratch, beyond what it
// returns — but never reads a byte there that it has not itself written,
// and never touches memory past cap(dst). The machine decompresses straight
// into a pool frame, a three-index slice whose next byte belongs to another
// page. FuzzDecompressDirtyScratch and TestDecompressStaysInsideCap enforce
// both halves.
type Codec interface {
	// Name reports the registry name of the codec, e.g. "lzrw1".
	Name() string

	// Compress appends the compressed representation of src to dst and
	// returns the extended slice. Compress never fails: for incompressible
	// input every codec falls back to a stored (raw) representation that is
	// at most MaxCompressedSize(len(src)) bytes long.
	Compress(dst, src []byte) []byte

	// Decompress appends the decompressed form of a block previously
	// produced by Compress and returns the extended slice. It returns an
	// error if src is not a well-formed block.
	Decompress(dst, src []byte) ([]byte, error)

	// MaxCompressedSize reports an upper bound on the size of the output of
	// Compress for an input of n bytes.
	MaxCompressedSize(n int) int
}

// ErrCorrupt is returned (possibly wrapped) by Decompress when the input is
// not a valid compressed block.
var ErrCorrupt = errors.New("compress: corrupt block")

// regMu guards registry. It is the one lock outside internal/runner, and it
// is real synchronisation: runner workers build
// machines, and so call Lookup, concurrently, and start-up code (the bench
// harness) may Register a codec of its own meanwhile. Which of them gets the
// lock first changes no simulated result, and every line that takes it tells
// kernelproto so.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Codec)
)

// Register makes a codec available by name. It panics if the name is already
// taken, matching the behaviour of database/sql-style registries.
func Register(c Codec) {
	regMu.Lock()         //cclint:ignore kernelproto -- registry lock shared with runner workers; it orders no simulated result (see regMu)
	defer regMu.Unlock() //cclint:ignore kernelproto -- registry lock shared with runner workers; it orders no simulated result (see regMu)
	name := c.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("compress: Register called twice for codec %q", name))
	}
	registry[name] = c
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	regMu.RLock()         //cclint:ignore kernelproto -- registry lock shared with runner workers; it orders no simulated result (see regMu)
	defer regMu.RUnlock() //cclint:ignore kernelproto -- registry lock shared with runner workers; it orders no simulated result (see regMu)
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

// Names reports the registered codec names in sorted order.
func Names() []string {
	regMu.RLock()         //cclint:ignore kernelproto -- registry lock shared with runner workers; it orders no simulated result (see regMu)
	defer regMu.RUnlock() //cclint:ignore kernelproto -- registry lock shared with runner workers; it orders no simulated result (see regMu)
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(LZRW1{})
	Register(LZSS{})
	Register(RLE{})
	Register(Null{})
	Register(BDI{})
	Register(FPC{})
}
