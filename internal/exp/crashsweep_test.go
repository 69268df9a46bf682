package exp

import (
	"testing"

	"compcache/internal/workload"
)

// TestCrashAtEveryPoint is the exhaustive satellite: for every crash leg on
// a 64-frame machine, crash at every single device write of a small run and
// verify every recovery.
func TestCrashAtEveryPoint(t *testing.T) {
	w := &workload.Thrasher{Pages: 80, Write: true, Passes: 1, CompressTarget: 0.85, Seed: 5}
	for _, l := range crashLegs(64*4096, 8*4096) {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			st, err := workload.Measure(l.cfg, workload.Clone(w))
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
				if _, err := crashTrial(l.cfg, workload.Clone(w), 5, uint64(k)); err != nil {
					t.Errorf("%v", err)
				}
			}
		})
	}
}
