// Package compress holds the codec hot-root fixtures: a function
// matching the Compress/Decompress borrow-only contract shape in an
// internal/compress package is a hot root all by itself.
package compress

// Compress matches the contract shape, so it is a hot root; the
// steady-state temporary is the violation.
func Compress(dst, src []byte) []byte {
	tmp := make([]byte, len(src)) // want `hot path Compress: make\(\[\]byte, len\(src\)\) allocates in steady state`
	copy(tmp, src)
	return append(dst[:0], tmp...)
}

// Codec shows the clean idioms: cap-guard growth of a pooled field
// (warm), append into the recycled dst (warm), and an error-path
// composite literal (cold). None of them is a finding.
type Codec struct {
	scratch []byte
}

type badInput struct{ n int }

func (b *badInput) Error() string { return "bad input" }

// check allocates only on the error path; the cold-return rule keeps
// its composite literal out of the steady summary.
func (c *Codec) check(n int) error {
	if n < 0 {
		return &badInput{n}
	}
	return nil
}

// Decompress matches the contract shape and stays allocation-free in
// steady state.
func (c *Codec) Decompress(dst, src []byte) ([]byte, error) {
	if err := c.check(len(src)); err != nil {
		return nil, err
	}
	if cap(c.scratch) < len(src) {
		c.scratch = make([]byte, len(src)) // warm: pooled field growth
	}
	buf := c.scratch[:len(src)]
	copy(buf, src)
	return append(dst[:0], buf...), nil
}

// Cycle's Compress enters a mutually recursive pair. The walk from the
// root must terminate, and the steady site inside the cycle is reported
// once, on the shortest chain.
type Cycle struct{}

// Compress matches the contract shape, so it is a hot root.
func (Cycle) Compress(dst, src []byte) []byte {
	return Ping(dst, len(src))
}

// Ping has no site of its own; it is hot only by reaching Pong.
func Ping(dst []byte, n int) []byte {
	if n == 0 {
		return dst
	}
	return Pong(dst, n-1)
}

// Pong allocates and recurses back into Ping.
func Pong(dst []byte, n int) []byte {
	tmp := make([]byte, 1) // want `hot path Compress → compress\.Ping → compress\.Pong: make\(\[\]byte, 1\) allocates in steady state`
	if n == 0 {
		return append(dst, tmp...)
	}
	return Ping(dst, n-1)
}
