package workload

import "math/rand"

// fillTunable fills buf with content whose LZRW1 compressibility is tuned by
// target, the approximate fraction of bytes that should remain after
// compression (the paper's compression-ratio axis). A prefix of
// target*len(buf) bytes is random (incompressible) and the remainder is a
// short repeating pattern (compresses to almost nothing), so the overall
// ratio lands near target.
func fillTunable(rng *rand.Rand, buf []byte, target float64) {
	if target < 0 {
		target = 0
	}
	if target > 1 {
		target = 1
	}
	n := int(float64(len(buf)) * target)
	rng.Read(buf[:n])
	pattern := [4]byte{0x20, byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26)), 0x00}
	for i := n; i < len(buf); i++ {
		buf[i] = pattern[i&3]
	}
}

// vocabulary produces a deterministic pseudo-dictionary of distinct
// lowercase words, standing in for /usr/dict/words (which the paper's sort
// benchmark replicates many times). Word lengths are 4-12 letters.
//
// The words are slices of one string, and the dedup set is keyed by the
// word's letters in a fixed array (no letter is zero, so the padding cannot
// collide), so a vocabulary costs a handful of allocations whatever its size.
func vocabulary(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[12]byte]bool, n)
	arena := make([]byte, 0, 12*n)
	ends := make([]int, 0, n)
	for len(ends) < n {
		var w [12]byte
		b := w[:4+rng.Intn(9)]
		// Markov-ish letter chain for a vaguely English shape.
		prev := byte('a' + rng.Intn(26))
		for i := range b {
			if i > 0 && rng.Intn(3) == 0 {
				b[i] = prev
				continue
			}
			c := byte('a' + rng.Intn(26))
			b[i] = c
			prev = c
		}
		if !seen[w] {
			seen[w] = true
			arena = append(arena, b...)
			ends = append(ends, len(arena))
		}
	}
	all := string(arena)
	words := make([]string, n)
	start := 0
	for i, end := range ends {
		words[i], start = all[start:end], end
	}
	return words
}

// pageFiller synthesizes page contents at a fixed compressibility for
// trace replay.
type pageFiller struct {
	rng    *rand.Rand
	buf    []byte
	target float64
}

func newPageFiller(seed int64, pageSize int, target float64) *pageFiller {
	return &pageFiller{
		rng:    rand.New(rand.NewSource(seed)),
		buf:    make([]byte, pageSize),
		target: target,
	}
}

// page returns a freshly filled page buffer (reused across calls).
func (p *pageFiller) page() []byte {
	fillTunable(p.rng, p.buf, p.target)
	return p.buf
}
