package exp

import (
	"testing"

	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

// tinyCrashLegs returns small machine configurations — the durable LFS plus
// one compressed machine per registered codec — whose runs have few enough
// device writes to crash exhaustively.
func tinyCrashLegs() map[string]machine.Config {
	base := machine.Default(64 * 4096) // 64 frames
	legs := map[string]machine.Config{
		"lfs": base.WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true}),
	}
	for _, codec := range compress.Names() {
		cfg := base.WithCC()
		cfg.CC.Codec = codec
		cfg.Swap.CommitRecords = true
		legs["cc/"+codec] = cfg
	}
	return legs
}

// TestCrashAtEveryPoint is the exhaustive satellite: for every leg, crash at
// every single device write of a small run and verify every recovery.
func TestCrashAtEveryPoint(t *testing.T) {
	w := &workload.Thrasher{Pages: 80, Write: true, Passes: 1, CompressTarget: 0.85, Seed: 5}
	for name, cfg := range tinyCrashLegs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			st, err := workload.Measure(cfg, workload.Clone(w))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			writes := int(st.Disk.Writes)
			if writes == 0 {
				t.Fatal("baseline run never wrote to the device; the sweep proves nothing")
			}
			if testing.Short() && writes > 40 {
				writes = 40
			}
			for k := 1; k <= writes; k++ {
				if _, err := crashTrial(cfg, workload.Clone(w), 5, uint64(k)); err != nil {
					t.Errorf("%v", err)
				}
			}
		})
	}
}
