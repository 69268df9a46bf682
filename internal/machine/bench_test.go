package machine

import "testing"

const benchMB = 1 << 20

// BenchmarkFaultPath measures the simulator's host-side cost per simulated
// memory reference under heavy paging (the figure that bounds experiment
// wall-clock time).
func BenchmarkFaultPath(b *testing.B) {
	for _, cc := range []bool{false, true} {
		name := "baseline"
		if cc {
			name = "cc"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Default(benchMB)
			if cc {
				cfg = cfg.WithCC()
			}
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewSegment("bench", 4*benchMB)
			pages := s.Pages()
			var word [8]byte
			for p := int32(0); p < pages; p++ {
				s.Write(int64(p)*4096, word[:])
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch(int32(i)%pages, i%2 == 0)
			}
		})
	}
}

// BenchmarkSteadyStatePaging measures the machine's compress/decompress hot
// path once the compression cache holds the whole working set: every touch
// is a page-out (compress into the per-machine scratch buffer) plus a cache
// hit (decompress into the frame), with no disk traffic. The allocs/op
// column is the interesting one — the steady state must stay at zero (also
// pinned by TestSteadyState*ZeroAllocs).
func BenchmarkSteadyStatePaging(b *testing.B) {
	for _, codecName := range []string{"lzrw1", "lzss", "bdi", "fpc"} {
		b.Run(codecName, func(b *testing.B) {
			cfg := Default(benchMB).WithCC()
			cfg.CC.Codec = codecName
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewSegment("bench", 400*4096)
			pages := s.Pages()
			var word [8]byte
			for p := int32(0); p < pages; p++ {
				s.Write(int64(p)*4096, word[:])
			}
			for pass := 0; pass < 3; pass++ { // reach the compressed steady state
				for p := int32(0); p < pages; p++ {
					s.Touch(p, false)
				}
			}
			b.SetBytes(4096)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch(int32(i)%pages, false)
			}
		})
	}
}
