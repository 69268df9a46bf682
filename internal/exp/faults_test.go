package exp

import (
	"context"
	"testing"

	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/runner"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

func TestFaultSweepShape(t *testing.T) {
	res := result[*FaultsResult](t, "faults")
	if len(res.Points) < 2 {
		t.Fatalf("points = %d, want the rate-0 baseline and at least one rate", len(res.Points))
	}
	p0 := res.Points[0]
	if p0.Survived != p0.Trials || p0.Overhead != 1.0 || p0.Faults.Any() {
		t.Fatalf("rate-0 row should be clean: %+v", p0)
	}
	if res.BaseTime == 0 {
		t.Fatal("no fault-free baseline time")
	}
	for _, p := range res.Points[1:] {
		if p.Survived > p.Trials {
			t.Fatalf("survived %d of %d", p.Survived, p.Trials)
		}
	}
}

// TestUnrecoverableKeepsSiblingResults is the error-propagation acceptance
// test: one run dying of an unrecoverable fault must surface a typed error
// through the runner without losing the sibling runs' results.
func TestUnrecoverableKeepsSiblingResults(t *testing.T) {
	w := &workload.Thrasher{Pages: 384, Write: true, Passes: 2, Seed: 1}
	healthy := machine.Default(1 << 20).WithCC()
	// Corruption at rate 1 on both layers: the first re-read of a compressed
	// fragment is corrupt with no clean copy anywhere, so this run dies.
	doomed := healthy.WithFaults(fault.Config{
		Seed:                2,
		CacheCorruptionRate: 1,
		SwapCorruptionRate:  1,
	})
	cfgs := []machine.Config{healthy, doomed, healthy}

	runs, err := runner.Map(context.Background(), len(cfgs), len(cfgs),
		func(_ context.Context, i int) (stats.Run, error) {
			return workload.Measure(cfgs[i], workload.Clone(w))
		})
	if err == nil {
		t.Fatal("doomed run reported no error")
	}
	if !fault.IsUnrecoverable(err) {
		t.Fatalf("aggregated error is not typed unrecoverable: %v", err)
	}
	if runs[0].Time == 0 {
		t.Fatal("sibling result before the failure was lost")
	}
	if runs[1].Time != 0 {
		t.Fatal("died run should hold the zero value")
	}
	// The third sibling may or may not have been dispatched before the
	// failure was observed; what matters is the slice keeps all slots.
	if len(runs) != len(cfgs) {
		t.Fatalf("results have %d slots, want %d", len(runs), len(cfgs))
	}
}
