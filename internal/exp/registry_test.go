package exp

import (
	"strings"
	"testing"
)

// TestNamesSortedAndComplete: the registry is sorted by name; that it is
// complete is TestRegistry's check, which needs a golden per name.
func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("registry not strictly sorted at %q, %q", names[i-1], names[i])
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
