package trace

import (
	"reflect"
	"testing"
)

// TestGeneratorDeterminism is the run-time side of walltime's ban on the
// process-global random source: every generator with a fixed seed must
// emit an identical reference sequence from two fresh instances. Each
// generator owns a private rand.Rand seeded from its Seed field, so
// nothing — not goroutine interleaving, not another generator running
// first, not the process-global source — can perturb the stream. If this test starts
// failing, some rand call slipped outside the seeded-source pattern (and
// cclint's walltime analyzer should have caught it first).
func TestGeneratorDeterminism(t *testing.T) {
	fresh := map[string]func() Generator{
		"uniform": func() Generator {
			return &Uniform{N: 2000, Range: 1 << 20, WriteFrac: 0.3, CPUs: 4, Seed: 42}
		},
		"zipf": func() Generator {
			return &Zipf{N: 2000, Range: 1 << 20, Skew: 1.3, WriteFrac: 0.2, CPUs: 4, Seed: 42}
		},
		"sequential": func() Generator {
			return &Strided{N: 2000, Range: 1 << 20, Stride: 8, WriteFrac: 0.1, CPUs: 4, Seed: 42}
		},
		"mix": func() Generator {
			return &Mix{Gens: []Generator{
				&Uniform{N: 500, Range: 1 << 16, WriteFrac: 0.5, CPUs: 2, Seed: 7},
				&Zipf{N: 500, Range: 1 << 16, Skew: 1.5, WriteFrac: 0.5, CPUs: 2, Seed: 7},
				&Strided{N: 500, Range: 1 << 16, Stride: 4, WriteFrac: 0.5, CPUs: 2, Seed: 7},
			}}
		},
	}
	for name, mk := range fresh {
		t.Run(name, func(t *testing.T) {
			a := Collect(mk())
			b := Collect(mk())
			if len(a) == 0 {
				t.Fatal("generator emitted no references")
			}
			if !reflect.DeepEqual(a, b) {
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("two fresh instances diverge at ref %d: %+v vs %+v", i, a[i], b[i])
					}
				}
				t.Fatalf("two fresh instances emit different lengths: %d vs %d", len(a), len(b))
			}
			// A different seed must change the stream — otherwise "seeded"
			// is vacuous and the determinism above proves nothing.
			switch g := mk().(type) {
			case *Uniform:
				g.Seed++
				if reflect.DeepEqual(a, Collect(g)) {
					t.Fatal("changing the seed did not change the stream")
				}
			case *Zipf:
				g.Seed++
				if reflect.DeepEqual(a, Collect(g)) {
					t.Fatal("changing the seed did not change the stream")
				}
			case *Strided:
				g.Seed++
				if reflect.DeepEqual(a, Collect(g)) {
					t.Fatal("changing the seed did not change the stream")
				}
			}
		})
	}
}
