package exp

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"compcache/internal/workload"
)

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
	f := Fig1a()
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
	if !strings.Contains(f.String(), "region map") {
		t.Error("missing region map in render")
	}
}

func TestFig1bLeap(t *testing.T) {
	f := Fig1b()
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
	res, err := Fig3(DefaultFig3Options(Small))
	if err != nil {
		t.Fatal(err)
	}
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

// serialTable1 is the first three rows of the small-scale Table 1 at -j 1,
// made once for the two tests that compare a concurrent run with it.
var serialTable1 = sync.OnceValues(func() (*Table1Result, error) {
	opts := DefaultTable1Options(Small)
	opts.Workloads = opts.Workloads[:3]
	opts.Parallelism = 1
	return Table1(opts)
})

func TestTable1SmallScale(t *testing.T) {
	res, err := Table1(DefaultTable1Options(Small))
	if err != nil {
		t.Fatal(err)
	}
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

func TestAblationsSmallScale(t *testing.T) {
	const memMB = 1
	pages := int32(3 * 256) // 3 MB working set vs 1 MB memory

	t.Run("partialIO", func(t *testing.T) {
		tab, err := AblationPartialIO(memMB, pages, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 4 { // two workloads x two backing-store modes
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
	t.Run("spanning", func(t *testing.T) {
		tab, err := AblationSpanning(memMB, pages, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
	t.Run("bias", func(t *testing.T) {
		tab, err := AblationBias(memMB, pages, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 6 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
	t.Run("threshold", func(t *testing.T) {
		tab, err := AblationThreshold(memMB, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 4 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
	t.Run("codec", func(t *testing.T) {
		tab, err := AblationCodec(memMB, pages, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 4 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
	t.Run("fixedsize", func(t *testing.T) {
		tab, err := AblationFixedSize(memMB, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 3 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
}

func TestScaleString(t *testing.T) {
	if Small.String() != "small" || Paper.String() != "paper" {
		t.Fatal("scale names wrong")
	}
}

func TestDefaultOptionsWorkloadOrderMatchesPaper(t *testing.T) {
	opts := DefaultTable1Options(Small)
	wantOrder := []string{"compare", "isca", "sort_partial", "gold_create", "gold_cold", "sort_random", "gold_warm"}
	if len(opts.Workloads) != len(wantOrder) {
		t.Fatalf("workload count %d", len(opts.Workloads))
	}
	for i, w := range opts.Workloads {
		if w.Name() != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, w.Name(), wantOrder[i])
		}
	}
	var _ workload.Workload = opts.Workloads[0]
}

func TestExtensionSweeps(t *testing.T) {
	t.Run("backing", func(t *testing.T) {
		tab, err := BackingStoreSweep(1, 768, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
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
		tab, err := CompressionSpeedSweep(1, 768, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
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
		tab, err := MobileScenario(1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 3 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	})
}

func TestAdvisoryPinning(t *testing.T) {
	// Working set = 2x memory, the §3 setup.
	tab, err := AdvisoryPinning(1, 512, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	tab, err := CompressedFileCache(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	tab, err := LFSComparison(1, 512, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	tab, err := Multiprogramming(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	tab, err := ModelValidation(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
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
