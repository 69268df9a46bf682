package exp

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"compcache/internal/workload"
)

// results holds one small-scale run of every registered experiment at
// Parallelism 4, made the first time a test asks for it: TestRegistry
// compares each with its golden and the shape tests read the same typed
// Result, so a filtered run costs one run of each experiment it names.
var results = func() map[string]func() (Result, error) {
	m := make(map[string]func() (Result, error), len(registry))
	for _, e := range registry {
		m[e.Name] = sync.OnceValues(func() (Result, error) {
			return e.Run(context.Background(), Options{Scale: Small, Parallelism: 4})
		})
	}
	return m
}()

// result is the memoised run of the named experiment as its concrete type;
// it fails the test on error. Callers only read it.
func result[R Result](t *testing.T, name string) R {
	t.Helper()
	run, ok := results[name]
	if !ok {
		t.Fatalf("%q is not a registered experiment", name)
	}
	res, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r, ok := res.(R)
	if !ok {
		t.Fatalf("%s returned a %T", name, res)
	}
	return r
}

// TestRegistry is the oracle for every registered experiment's output. Each
// golden (testdata/<name>.golden) holds the bytes `ccbench -run <name> -j 1`
// printed; the run here is at Parallelism 4, so each subtest also proves
// the experiment byte-identical serial and parallel (every machine runs on
// its own virtual clock with its own cloned workload). There is a golden
// for every registered name and for nothing else, so a new experiment is
// covered the moment it is registered.
func TestRegistry(t *testing.T) {
	var goldens []string
	err := fs.WalkDir(os.DirFS("testdata"), ".", func(path string, _ fs.DirEntry, err error) error {
		if name, ok := strings.CutSuffix(path, ".golden"); ok {
			goldens = append(goldens, name)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(goldens)
	if !slices.Equal(goldens, Names()) {
		t.Errorf("goldens %v\ndo not match the registry %v", goldens, Names())
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, tab := range result[Result](t, name).Tables() {
				fmt.Fprintln(&got, tab)
			}
			if got.String() != string(want) {
				t.Fatalf("at Parallelism 4 %s printed\n%s\nwant (ccbench -run %s -j 1)\n%s", name, got.String(), name, want)
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Note: "n"}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	s := tab.String()
	for _, want := range []string{"T", "a", "bb", "333", "n", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFig1aShape(t *testing.T) {
	f := result[*Fig1Result](t, "fig1a")
	if len(f.Grid) != len(f.Ratios) || len(f.Grid[0]) != len(f.Speeds) {
		t.Fatal("grid shape mismatch")
	}
	regions := f.Regions()
	// The paper's figure has all three shaded regions.
	for _, r := range []string{">6x", "1-6x", "<1x"} {
		if regions[r] == 0 {
			t.Errorf("region %q empty: %v", r, regions)
		}
	}
	// Top-left (good ratio, fast compression) must beat bottom-right.
	if f.Grid[0][len(f.Speeds)-1] <= f.Grid[len(f.Ratios)-1][0] {
		t.Error("surface orientation wrong")
	}
	if !strings.Contains(f.Table().String(), "region map") {
		t.Error("missing region map in render")
	}
}

func TestFig1bLeap(t *testing.T) {
	f := result[*Fig1Result](t, "fig1b")
	// Find the ratio rows nearest 0.45 and 0.6 at high speed: the speedup
	// must leap downward crossing r=0.5 (the fits-in-memory cliff).
	var below, above float64
	lastSpeed := len(f.Speeds) - 1
	for i, r := range f.Ratios {
		if r <= 0.45 {
			below = f.Grid[i][lastSpeed]
		}
		if above == 0 && r >= 0.6 {
			above = f.Grid[i][lastSpeed]
		}
	}
	if below <= above*1.2 {
		t.Errorf("no leap at r=0.5: below=%v above=%v", below, above)
	}
}

func TestFig3SmallScale(t *testing.T) {
	res := result[*Fig3Result](t, "fig3")
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Shape assertions mirroring the paper's Figure 3:
	// 1. In-memory sizes: no benefit, no harm.
	first := res.Points[0]
	if first.SpeedRW < 0.9 || first.SpeedRW > 1.2 {
		t.Errorf("in-memory rw speedup %.2f, want ~1", first.SpeedRW)
	}
	// 2. Some point past memory size shows a solid rw win.
	bestRW := 0.0
	for _, p := range res.Points {
		if p.SpeedRW > bestRW {
			bestRW = p.SpeedRW
		}
	}
	if bestRW < 2 {
		t.Errorf("peak rw speedup %.2f, want >= 2", bestRW)
	}
	// 3. The compression cache never loses on the thrasher (its best case).
	for _, p := range res.Points {
		if p.SpeedRW < 0.9 || p.SpeedRO < 0.9 {
			t.Errorf("size %dMB: speedups rw=%.2f ro=%.2f dipped below 0.9", p.SizeMB, p.SpeedRW, p.SpeedRO)
		}
	}
	// Renderers.
	if !strings.Contains(res.TableA().String(), "std_rw") {
		t.Error("TableA missing header")
	}
	if !strings.Contains(res.TableB().String(), "cc_ro") {
		t.Error("TableB missing header")
	}
}

func TestTable1SmallScale(t *testing.T) {
	res := result[*Table1Result](t, "table1")
	if len(res.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(res.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.Paper.Speedup == 0 {
			t.Errorf("row %s has no paper reference", r.Name)
		}
	}
	// Shape: compare must win clearly; sort_random must not win.
	if s := byName["compare"].Cmp.Speedup(); s < 1.2 {
		t.Errorf("compare speedup %.2f, want > 1.2", s)
	}
	if s := byName["sort_random"].Cmp.Speedup(); s > 1.1 {
		t.Errorf("sort_random speedup %.2f, want <= 1.1", s)
	}
	// Compressibility classes: compare ~3:1, sort_random mostly failing.
	if u := byName["sort_random"].Cmp.CC.Comp.UncompressibleFrac(); u < 0.5 {
		t.Errorf("sort_random uncompressible %.2f, want > 0.5", u)
	}
	if u := byName["compare"].Cmp.CC.Comp.UncompressibleFrac(); u > 0.2 {
		t.Errorf("compare uncompressible %.2f, want < 0.2", u)
	}
	if !strings.Contains(res.Table().String(), "paper:speedup") {
		t.Error("table missing paper columns")
	}
}

func TestPaperTable1Lookup(t *testing.T) {
	r, ok := PaperTable1("compare")
	if !ok || r.Speedup != 2.68 {
		t.Fatalf("compare row %+v ok=%v", r, ok)
	}
	if _, ok := PaperTable1("nope"); ok {
		t.Fatal("unknown row found")
	}
}

// TestAblationsSmallScale holds each §4 ablation to the shape of its grid,
// read from the memoised run: a regenerated golden could drop or add a row
// without anyone noticing, a row count cannot.
func TestAblationsSmallScale(t *testing.T) {
	for _, c := range []struct {
		sub, name string
		rows      int
	}{
		{"partialIO", "ablation/partial-io", 4}, // two workloads x two backing-store modes
		{"spanning", "ablation/spanning", 2},
		{"bias", "ablation/bias", 6},
		{"threshold", "ablation/threshold", 4},
		{"codec", "ablation/codec", 4},
		{"fixedsize", "ablation/fixed-size", 3},
	} {
		t.Run(c.sub, func(t *testing.T) {
			if n := len(result[*Table](t, c.name).Rows); n != c.rows {
				t.Fatalf("%s: rows = %d, want %d", c.name, n, c.rows)
			}
		})
	}
}

func TestScaleString(t *testing.T) {
	if Small.String() != "small" || Paper.String() != "paper" {
		t.Fatal("scale names wrong")
	}
}

func TestTable1WorkloadOrderMatchesPaper(t *testing.T) {
	_, ws := table1Workloads(Small, 42)
	wantOrder := []string{"compare", "isca", "sort_partial", "gold_create", "gold_cold", "sort_random", "gold_warm"}
	if len(ws) != len(wantOrder) {
		t.Fatalf("workload count %d", len(ws))
	}
	for i, w := range ws {
		if w.Name() != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, w.Name(), wantOrder[i])
		}
	}
	var _ workload.Workload = ws[0]
}

func TestExtensionSweeps(t *testing.T) {
	t.Run("backing", func(t *testing.T) {
		tab := result[*Table](t, "ext/backing-store")
		if len(tab.Rows) != 4 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		// The cache's advantage must grow as the backing store slows: the
		// wireless row's speedup exceeds the fastest row's.
		first, err1 := strconv.ParseFloat(tab.Rows[0][3], 64)
		last, err2 := strconv.ParseFloat(tab.Rows[3][3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable speedups: %v %v", err1, err2)
		}
		if last <= first {
			t.Fatalf("speedup did not grow with slower backing store: fast=%.2f wireless=%.2f", first, last)
		}
	})
	t.Run("compressionSpeed", func(t *testing.T) {
		tab := result[*Table](t, "ext/compression-speed")
		if len(tab.Rows) != 5 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		// Speedup must be monotone in compression speed.
		prev := 0.0
		for i, row := range tab.Rows {
			v, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("speedup fell from %.2f to %.2f at row %d", prev, v, i)
			}
			prev = v
		}
	})
	t.Run("mobile", func(t *testing.T) {
		tab := result[*Table](t, "ext/mobile")
		if len(tab.Rows) != 3 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
}

func TestAdvisoryPinning(t *testing.T) {
	// Working set = 2x memory, the §3 setup.
	tab := result[*Table](t, "ext/pinning")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Pinning must beat plain LRU, and the compression cache must beat
	// pinning — the §3 argument.
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	std, pin, cc := parse(tab.Rows[0][3]), parse(tab.Rows[1][3]), parse(tab.Rows[2][3])
	if pin <= std {
		t.Errorf("pinning (%.2f) did not beat LRU (%.2f)", pin, std)
	}
	if cc <= pin {
		t.Errorf("compression cache (%.2f) did not beat pinning (%.2f)", cc, pin)
	}
}

func TestCompressedFileCacheExperiment(t *testing.T) {
	tab := result[*Table](t, "ext/file-cache")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The compressed block cache must serve hits and reduce device reads.
	if tab.Rows[1][3] == "0" {
		t.Fatal("no compressed-cache hits")
	}
	if tab.Rows[1][1] >= tab.Rows[0][1] && tab.Rows[1][2] >= tab.Rows[0][2] {
		t.Fatalf("compressed file cache helped neither time nor reads: %v vs %v", tab.Rows[1], tab.Rows[0])
	}
}

func TestLFSComparison(t *testing.T) {
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Fits-compressed regime: the cache eliminates I/O entirely and must
	// beat LFS, which still reads every fault from disk.
	res, err := lfsSweep(context.Background(), Options{}, 512)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.(*Table)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	lfs, cc := parse(tab.Rows[1][4]), parse(tab.Rows[2][4])
	if lfs <= 1 {
		t.Errorf("LFS speedup %.2f, want > 1 (batched segment writes remove write seeks)", lfs)
	}
	if cc <= lfs {
		t.Errorf("compression cache (%.2f) did not beat LFS (%.2f) in the fits-compressed regime", cc, lfs)
	}
}

func TestMultiprogramming(t *testing.T) {
	tab := result[*Table](t, "ext/multiprogramming")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Two compressible processes collectively thrash; the cache must win.
	if s := parse(tab.Rows[0][3]); s <= 1.2 {
		t.Errorf("compressible mix speedup %.2f, want > 1.2", s)
	}
	// With an incompressible process in the mix the win shrinks but the
	// compressible member must still make the mix a net win.
	if s := parse(tab.Rows[1][3]); s <= 0.9 {
		t.Errorf("mixed mix speedup %.2f, want > 0.9", s)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow("1,2", `say "hi"`)
	tab.AddRow("3", "4")
	got := tab.CSV()
	want := "a,b\n\"1,2\",\"say \"\"hi\"\"\"\n3,4\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestModelValidation(t *testing.T) {
	tab := result[*Table](t, "ext/model-validation")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		// The idealized model and the simulator must agree within ~3x;
		// tighter agreement is workload-phase dependent.
		if ratio < 0.33 || ratio > 3 {
			t.Errorf("%s: measured/model = %.2f, want within [0.33, 3]", row[0], ratio)
		}
	}
}
