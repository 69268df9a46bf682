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

// PrefixDecoder is a codec that can decode a block a prefix at a time, so a
// caller that needs only the first bytes of a page does not pay for the rest
// (LZRW1 and FPC are two).
//
// DecompressPrefix continues the decode of src from at, where dst holds
// exactly the bytes the steps before it produced (dst[:0] at the zero
// Prefix), appends until at least upto bytes exist or the block ends, and
// returns the extended slice and where the next step starts. Any sequence of
// steps over the same src produces, once Done, Decompress(dst[:0], src)'s
// bytes; and where Decompress fails, the step that reaches the failure
// returns Decompress's error. A step may use dst's spare capacity as scratch,
// as Decompress may, and never reads a byte there it has not written itself,
// so the bytes past the returned slice are not the block's until a later step
// returns them.
type PrefixDecoder interface {
	Codec
	DecompressPrefix(dst, src []byte, at Prefix, upto int) ([]byte, Prefix, error)
}

// Prefix is where a prefix decode stopped: how much of its block's body the
// steps so far consumed. LZRW1 stops only between groups and FPC only between
// control bytes, so that offset and the output so far are the whole state.
// The zero Prefix is the block's start.
type Prefix struct {
	in   int // bytes of the body consumed
	done bool
}

// Done reports whether the decode has reached the block's end.
func (p Prefix) Done() bool { return p.done }

// ErrCorrupt is returned (possibly wrapped) by Decompress when the input is
// not a valid compressed block.
var ErrCorrupt = errors.New("compress: corrupt block")

// splitBlock checks the flag byte every block but Null's starts with, and
// returns the body after it and whether the block is stored.
func splitBlock(src []byte) (body []byte, stored bool, err error) {
	if len(src) == 0 {
		return nil, false, fmt.Errorf("%w: empty input", ErrCorrupt)
	}
	switch src[0] {
	case flagCopy:
		return src[1:], true, nil
	case flagCompress:
		return src[1:], false, nil
	}
	return nil, false, fmt.Errorf("%w: bad flag byte %#x", ErrCorrupt, src[0])
}

// storedPrefix is the prefix step of a stored block: its body is its output.
func storedPrefix(dst, body []byte, at Prefix, upto int) ([]byte, Prefix) {
	n := min(len(body), max(upto, at.in))
	return append(dst, body[at.in:n]...), Prefix{in: n, done: n == len(body)}
}

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
		// Invariant: each codec name is registered once; a second codec
		// under it would change what every machine naming it runs.
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
