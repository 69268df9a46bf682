package vm

import (
	"math/rand"
	"testing"
)

// In-package twins of the ledger's per-layer rows vm.touch_hit_ns,
// vm.readword_ns and vm.writeword_ns (bench/README.md): a resident hit and
// nothing else, on the three LRU shapes it can meet — the page is already the
// tail, the page is one from the tail, the page is anywhere.
//
//	go test -run '^$' -bench . -benchmem ./internal/vm

const benchPages = 64

func newBenchVM(b *testing.B) (*VM, *Segment) {
	b.Helper()
	v, _, _, _ := newTestVM(b, 2*benchPages)
	s := v.NewSegment("hot", benchPages)
	for n := int32(0); n < benchPages; n++ {
		if _, err := v.Touch(s, n, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	return v, s
}

func BenchmarkTouchHitSamePage(b *testing.B) {
	v, s := newBenchVM(b)
	for i := 0; i < b.N; i++ {
		v.Touch(s, 7, false)
	}
}

func BenchmarkTouchHitPingPong(b *testing.B) {
	v, s := newBenchVM(b)
	for i := 0; i < b.N; i++ {
		v.Touch(s, int32(i&1), false)
	}
}

func BenchmarkTouchHitRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pages [4096]int32
	for i := range pages {
		pages[i] = int32(rng.Intn(benchPages))
	}
	v, s := newBenchVM(b)
	for i := 0; i < b.N; i++ {
		v.Touch(s, pages[i&4095], false)
	}
}

var wordSink uint64

func BenchmarkReadWord(b *testing.B) {
	v, s := newBenchVM(b)
	for i := 0; i < b.N; i++ {
		w, _ := v.ReadWord(s, int64(i&63)*4096+int64(i&255)*8)
		wordSink += w
	}
}

func BenchmarkWriteWord(b *testing.B) {
	v, s := newBenchVM(b)
	for i := 0; i < b.N; i++ {
		v.WriteWord(s, int64(i&63)*4096+int64(i&255)*8, uint64(i))
	}
}

func BenchmarkRead4B(b *testing.B) {
	v, s := newBenchVM(b)
	var buf [4]byte
	for i := 0; i < b.N; i++ {
		v.Read(s, int64(i&63)*4096+int64(i&1023)*4, buf[:])
	}
}
