package exp

import (
	"context"
	"strings"
	"testing"
)

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("registry not strictly sorted at %q, %q", names[i-1], names[i])
		}
	}
	want := []string{
		"ablation/bias", "ablation/codec", "ablation/fixed-size",
		"ablation/partial-io", "ablation/spanning", "ablation/threshold",
		"ext/backing-store", "ext/codec-sweep", "ext/compression-speed",
		"ext/crash-sweep",
		"ext/file-cache", "ext/fleet-sweep", "ext/lfs", "ext/mobile", "ext/model-validation",
		"ext/multiprogramming", "ext/pinning",
		"faults", "fig1a", "fig1b", "fig3", "table1",
	}
	if len(names) != len(want) {
		t.Fatalf("got %d experiments %v, want %d", len(names), names, len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestResolveGroups(t *testing.T) {
	abl, err := Resolve([]string{"ablations"})
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 6 {
		t.Fatalf("ablations resolved to %d experiments, want 6", len(abl))
	}
	for _, e := range abl {
		if !strings.HasPrefix(e.Name, "ablation/") {
			t.Fatalf("ablations group included %q", e.Name)
		}
	}

	all, err := Resolve([]string{"all", "fig3", " table1 "})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Names()) {
		t.Fatalf("all resolved to %d experiments, want %d (deduplicated)", len(all), len(Names()))
	}

	if _, err := Resolve([]string{"no-such-experiment"}); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
}

func TestRegistryRunsModelExperiment(t *testing.T) {
	e, ok := Lookup("fig1a")
	if !ok {
		t.Fatal("fig1a not registered")
	}
	res, err := e.Run(context.Background(), DefaultOptions(Small))
	if err != nil {
		t.Fatal(err)
	}
	tabs := res.Tables()
	if len(tabs) != 1 || len(tabs[0].Rows) == 0 {
		t.Fatalf("fig1a produced %d tables (rows %v)", len(tabs), tabs)
	}
	if !strings.Contains(tabs[0].Title, "Figure 1(a)") {
		t.Fatalf("unexpected title %q", tabs[0].Title)
	}
}
