package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"compcache/internal/machine"
	"compcache/internal/simalloc"
)

// SortMode selects the input ordering for the Sort workload.
type SortMode int

// Sort input orderings.
const (
	// SortRandom shuffles the input uniformly, "so there was minimal
	// repetition of strings within an individual 4-Kbyte page"; the paper
	// measured ~98% of pages failing the 4:3 threshold and an 0.91x
	// slowdown under the compression cache.
	SortRandom SortMode = iota

	// SortPartial uses "only a minor permutation of the sorted copy of the
	// file, with substrings (or complete words) often repeated within a
	// page"; the paper measured ~3:1 compression and a 1.30x speedup.
	SortPartial
)

// String returns the mode name.
func (m SortMode) String() string {
	if m == SortPartial {
		return "partial"
	}
	return "random"
}

// Sort reproduces the paper's quicksort benchmark: sorting a file of
// approximately 12 MB of text ("numerous copies of each word in
// /usr/dict/words"). Records live in simulated memory and are sorted with
// an in-place iterative quicksort; the input file is read through the
// simulated file system.
type Sort struct {
	// Bytes is the total input size; the paper uses ~12 MB.
	Bytes int64

	// Mode selects random or partial (nearly sorted) input.
	Mode SortMode

	// VocabWords is the dictionary size words are drawn from.
	VocabWords int

	// Seed makes runs reproducible.
	Seed int64

	// Run records the heap location so tests can verify the result.
	space *machine.Space
	base  int64
	n     int64
}

// recordBytes is the fixed record size: a word padded/truncated to 16 bytes.
// Fixed-size records keep the in-place quicksort honest without an indirect
// pointer array.
const recordBytes = 16

// Name implements Workload.
func (s *Sort) Name() string { return "sort_" + s.Mode.String() }

// Run implements Workload.
func (s *Sort) Run(m *machine.Machine) error {
	if s.Bytes < recordBytes*16 {
		return fmt.Errorf("sort: input too small")
	}
	vocabN := s.VocabWords
	if vocabN == 0 {
		vocabN = 25000
	}
	n := s.Bytes / recordBytes
	rng := rand.New(rand.NewSource(s.Seed))

	// Build the input file (setup): records drawn from the vocabulary in
	// the requested order.
	words := vocabulary(vocabN, s.Seed+1)
	sortedWords := append([]string(nil), words...)
	sort.Strings(sortedWords)

	input := m.FS.Create("sort.input")
	rec := make([]byte, recordBytes)
	writeRec := func(off int64, w string, salt uint32) {
		for i := range rec {
			rec[i] = 0
		}
		copy(rec, w)
		// A sequence tag keeps records distinct without making random
		// pages compressible.
		rec[12], rec[13], rec[14] = byte(salt), byte(salt>>8), byte(salt>>16)
		input.WriteAt(rec, off)
	}
	switch s.Mode {
	case SortRandom:
		for i := int64(0); i < n; i++ {
			writeRec(i*recordBytes, words[rng.Intn(vocabN)], rng.Uint32())
		}
	case SortPartial:
		// "Only a minor permutation of the sorted copy of the file, with
		// substrings (or complete words) often repeated within a page":
		// walk the sorted vocabulary in order, but jitter each pick within
		// a local window and repeat words in short bursts. The result is
		// nearly sorted and partially repetitive — compressible pages and
		// hard-to-compress pages mixed, as the paper measured (~49% of
		// pages missing the 4:3 threshold).
		const window = 96
		i := int64(0)
		for i < n {
			center := int(i * int64(vocabN) / n)
			idx := center + rng.Intn(window) - window/2
			if idx < 0 {
				idx = 0
			}
			if idx >= vocabN {
				idx = vocabN - 1
			}
			w := sortedWords[idx]
			run := int64(rng.Intn(3) + 1)
			for j := int64(0); j < run && i < n; j++ {
				writeRec(i*recordBytes, w, rng.Uint32())
				i++
			}
		}
	default:
		return fmt.Errorf("sort: unknown mode %d", s.Mode)
	}
	m.FS.Sync()

	// Load the file into the heap (this is part of the benchmark in the
	// paper: the sort program reads its input).
	heap := m.NewSegment("sort.heap", n*recordBytes+int64(m.Config().PageSize))
	arena := simalloc.New(heap)
	base := arena.AllocPageAligned(n * recordBytes)
	s.space, s.base, s.n = heap, base, n

	m.MarkStart()
	buf := make([]byte, 64*recordBytes)
	for off := int64(0); off < n*recordBytes; off += int64(len(buf)) {
		chunk := buf
		if rem := n*recordBytes - off; rem < int64(len(buf)) {
			chunk = buf[:rem]
		}
		input.ReadAt(chunk, off)
		heap.Write(base+off, chunk)
	}

	s.quicksort(heap, base, 0, n-1)

	m.Drain()
	return nil
}

// recordLess reports whether record a sorts before record b, in the order of
// bytes.Compare: each record is two big-endian words, compared in turn.
func recordLess(a, b *[recordBytes]byte) bool {
	a0, b0 := binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(b[:8])
	if a0 != b0 {
		return a0 < b0
	}
	return binary.BigEndian.Uint64(a[8:]) < binary.BigEndian.Uint64(b[8:])
}

// quicksort is an iterative in-place quicksort with median-of-three pivots
// and insertion sort below a cutoff, operating on records in simulated
// memory.
func (s *Sort) quicksort(space *machine.Space, base, lo, hi int64) {
	var ra, rb, rp [recordBytes]byte
	read := func(i int64, dst *[recordBytes]byte) { space.Read(base+i*recordBytes, dst[:]) }
	write := func(i int64, src *[recordBytes]byte) { space.Write(base+i*recordBytes, src[:]) }
	swap := func(i, j int64) {
		if i == j {
			return
		}
		read(i, &ra)
		read(j, &rb)
		write(i, &rb)
		write(j, &ra)
	}

	const cutoff = 12
	type span struct{ lo, hi int64 }
	stack := []span{{lo, hi}}
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for sp.hi-sp.lo > cutoff {
			// Median of three: order lo, mid, hi.
			mid := sp.lo + (sp.hi-sp.lo)/2
			read(sp.lo, &ra)
			read(mid, &rb)
			if recordLess(&rb, &ra) {
				swap(sp.lo, mid)
			}
			read(sp.lo, &ra)
			read(sp.hi, &rb)
			if recordLess(&rb, &ra) {
				swap(sp.lo, sp.hi)
			}
			read(mid, &ra)
			read(sp.hi, &rb)
			if recordLess(&rb, &ra) {
				swap(mid, sp.hi)
			}
			read(mid, &rp) // pivot

			i, j := sp.lo, sp.hi
			for i <= j {
				for {
					read(i, &ra)
					if !recordLess(&ra, &rp) {
						break
					}
					i++
				}
				for {
					read(j, &rb)
					if !recordLess(&rp, &rb) {
						break
					}
					j--
				}
				if i <= j {
					swap(i, j)
					i++
					j--
				}
			}
			// Recurse into the smaller side; loop on the larger.
			if j-sp.lo < sp.hi-i {
				if i < sp.hi {
					stack = append(stack, span{i, sp.hi})
				}
				sp.hi = j
			} else {
				if sp.lo < j {
					stack = append(stack, span{sp.lo, j})
				}
				sp.lo = i
			}
		}
		// Insertion sort for the small residue.
		for i := sp.lo + 1; i <= sp.hi; i++ {
			read(i, &ra)
			j := i - 1
			for j >= sp.lo {
				read(j, &rb)
				if !recordLess(&ra, &rb) {
					break
				}
				write(j+1, &rb)
				j--
			}
			write(j+1, &ra)
		}
	}
}

// VerifySorted checks the final order after Run (tests use it); it reports
// the first out-of-order record index, or -1 when sorted.
func (s *Sort) VerifySorted() int64 {
	var prev, cur [recordBytes]byte
	s.space.Read(s.base, prev[:])
	for i := int64(1); i < s.n; i++ {
		s.space.Read(s.base+i*recordBytes, cur[:])
		if recordLess(&cur, &prev) {
			return i
		}
		prev = cur
	}
	return -1
}
