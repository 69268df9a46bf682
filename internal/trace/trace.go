// Package trace generates synthetic memory-reference traces.
//
// The cache-simulator workload (the paper's "isca", Dubnicki & LeBlanc's
// adjustable-block-size coherent-cache study) consumes a multiprocessor
// address trace; the paper's authors drove it with real traces we do not
// have, so this package synthesizes traces with controllable locality and
// sharing, which preserves what matters for the reproduction: the simulator
// is CPU- and memory-intensive and its tables are what the compression cache
// sees.
//
// Generators are deterministic for a given seed.
package trace

import "math/rand"

// Ref is one memory reference.
type Ref struct {
	CPU   int
	Addr  uint64
	Write bool
}

// Generator produces a stream of references. Next reports done=true when
// the trace is exhausted.
type Generator interface {
	Next() (ref Ref, done bool)
}

// Zipf generates n references with Zipfian popularity over Range addresses
// (hot data shared across CPUs, the canonical coherence stressor).
type Zipf struct {
	N         int
	Range     uint64
	Skew      float64 // zipf s parameter, > 1
	WriteFrac float64
	CPUs      int
	Seed      int64

	i    int
	rng  *rand.Rand
	zipf *rand.Zipf
}

// Next implements Generator.
func (z *Zipf) Next() (Ref, bool) {
	if z.rng == nil {
		z.rng = rand.New(rand.NewSource(z.Seed))
		if z.CPUs == 0 {
			z.CPUs = 1
		}
		s := z.Skew
		if s <= 1 {
			s = 1.2
		}
		z.zipf = rand.NewZipf(z.rng, s, 1, z.Range-1)
	}
	if z.i >= z.N {
		return Ref{}, true
	}
	r := Ref{
		CPU:   z.i % z.CPUs,
		Addr:  z.zipf.Uint64(),
		Write: z.rng.Float64() < z.WriteFrac,
	}
	z.i++
	return r, false
}

// Strided generates sequential strided sweeps (matrix-walk locality): each
// CPU walks its own partition with the given stride, wrapping around, with
// periodic writes.
type Strided struct {
	N         int
	Range     uint64
	Stride    uint64
	WriteFrac float64
	CPUs      int
	Seed      int64

	i   int
	pos []uint64
	rng *rand.Rand
}

// Next implements Generator.
func (s *Strided) Next() (Ref, bool) {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.Seed))
		if s.CPUs == 0 {
			s.CPUs = 1
		}
		if s.Stride == 0 {
			s.Stride = 4
		}
		s.pos = make([]uint64, s.CPUs)
		part := s.Range / uint64(s.CPUs)
		for c := range s.pos {
			s.pos[c] = uint64(c) * part
		}
	}
	if s.i >= s.N {
		return Ref{}, true
	}
	cpu := s.i % s.CPUs
	part := s.Range / uint64(s.CPUs)
	base := uint64(cpu) * part
	addr := s.pos[cpu]
	s.pos[cpu] = base + (addr-base+s.Stride)%part
	r := Ref{CPU: cpu, Addr: addr, Write: s.rng.Float64() < s.WriteFrac}
	s.i++
	return r, false
}

// Mix interleaves several generators round-robin until all are exhausted.
type Mix struct {
	Gens []Generator
	i    int
	done []bool
	left int
}

// Next implements Generator.
func (m *Mix) Next() (Ref, bool) {
	if m.done == nil {
		m.done = make([]bool, len(m.Gens))
		m.left = len(m.Gens)
	}
	for m.left > 0 {
		idx := m.i % len(m.Gens)
		m.i++
		if m.done[idx] {
			continue
		}
		r, done := m.Gens[idx].Next()
		if done {
			m.done[idx] = true
			m.left--
			continue
		}
		return r, false
	}
	return Ref{}, true
}
