package workload

import (
	"testing"

	"compcache/internal/machine"
)

// BenchmarkGoldCC runs one gold_warm leg of the perf ledger's apps workload,
// the leg that pages hardest, at the ledger's sizes on its 512-KB
// compression-cache machine: the fault path's in-package twin of the apps
// wall time.
func BenchmarkGoldCC(b *testing.B) {
	cfg := machine.Default(512 << 10).WithCC()
	for i := 0; i < b.N; i++ {
		w := &Gold{Messages: 2000, WordsPerMessage: 24, VocabWords: 2000,
			Queries: 600, Phase: GoldWarm, Seed: 1}
		st, err := Measure(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.VM.CacheHits), "cc_hits/op")
	}
}
