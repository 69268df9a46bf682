package exp

import (
	"context"
	"fmt"
	"time"

	"compcache/internal/machine"
	"compcache/internal/runner"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

// Fig3Point is one x position of Figure 3: one address-space size measured
// four ways.
type Fig3Point struct {
	SizeMB    int
	StdRW     time.Duration // average page access, unmodified system, read/write
	CCRW      time.Duration // with compression cache, read/write
	StdRO     time.Duration // unmodified, read-only
	CCRO      time.Duration // with compression cache, read-only
	SpeedRW   float64       // Figure 3(b): StdRW / CCRW
	SpeedRO   float64       // Figure 3(b): StdRO / CCRO
	CCHitRW   float64
	CCHitRO   float64
	CompRatio float64
}

// Fig3Result is the full sweep.
type Fig3Result struct {
	MemoryMB int
	Points   []Fig3Point
}

// fig3Sizes is Figure 3's sizing by scale: user-available memory (the paper
// uses ~6 MB) and the address-space sizes to sweep (the paper sweeps 0-40).
var fig3Sizes = [...]struct {
	memoryMB int
	sizesMB  []int
}{
	Small: {2, []int{1, 2, 3, 4, 6, 8}},
	Paper: {6, []int{2, 4, 6, 8, 10, 12, 15, 20, 25, 30, 35, 40}},
}

// fig3Passes is the number of timed access sweeps after initialization.
const fig3Passes = 2

// Fig3 runs the §5.1 thrasher sweep: average page access time and speedup
// versus address-space size, read-only and read-write, with and without the
// compression cache. Each size contributes four independent machines
// ({read-write, read-only} x {baseline, cc}); the whole grid fans out
// across Options.Parallelism workers and the points assemble in size order.
// The result is a *Fig3Result.
func Fig3(ctx context.Context, o Options) (Result, error) {
	sz := fig3Sizes[o.Scale]
	memBytes := int64(sz.memoryMB) << 20
	// Four measurements per size, in a fixed sub-order: rw/std, rw/cc,
	// ro/std, ro/cc.
	type spec struct {
		sizeMB int
		write  bool
		cc     bool
	}
	specs := make([]spec, 0, 4*len(sz.sizesMB))
	for _, sizeMB := range sz.sizesMB {
		for _, write := range []bool{true, false} {
			for _, cc := range []bool{false, true} {
				specs = append(specs, spec{sizeMB, write, cc})
			}
		}
	}
	runs, err := runner.Map(ctx, o.Parallelism, len(specs),
		func(_ context.Context, i int) (stats.Run, error) {
			s := specs[i]
			cfg := machine.Default(memBytes)
			if s.cc {
				cfg = cfg.WithCC()
			}
			st, err := workload.Measure(cfg, &workload.Thrasher{
				Pages: int32(s.sizeMB << 20 / 4096), Write: s.write, Passes: fig3Passes, Seed: 1})
			if err != nil {
				return stats.Run{}, fmt.Errorf("fig3 %dMB write=%v: %w", s.sizeMB, s.write, err)
			}
			return st, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Fig3Result{MemoryMB: sz.memoryMB}
	sweeps := (&workload.Thrasher{Passes: fig3Passes}).TimedSweeps()
	for si, sizeMB := range sz.sizesMB {
		pages := int32(sizeMB << 20 / 4096)
		touches := time.Duration(sweeps) * time.Duration(pages)
		rwStd, rwCC, roStd, roCC := runs[4*si], runs[4*si+1], runs[4*si+2], runs[4*si+3]
		pt := Fig3Point{
			SizeMB:    sizeMB,
			StdRW:     rwStd.Time / touches,
			CCRW:      rwCC.Time / touches,
			StdRO:     roStd.Time / touches,
			CCRO:      roCC.Time / touches,
			SpeedRW:   workload.Comparison{Std: rwStd, CC: rwCC}.Speedup(),
			SpeedRO:   workload.Comparison{Std: roStd, CC: roCC}.Speedup(),
			CCHitRW:   rwCC.CC.HitRate(),
			CCHitRO:   roCC.CC.HitRate(),
			CompRatio: rwCC.Comp.Ratio(),
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Tables implements Result.
func (r *Fig3Result) Tables() []*Table { return []*Table{r.TableA(), r.TableB()} }

// TableA renders Figure 3(a): average page access time per curve.
func (r *Fig3Result) TableA() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 3(a): average page access time (user memory %d MB)", r.MemoryMB),
		Header: []string{"size(MB)", "std_rw", "cc_rw", "std_ro", "cc_ro"},
		Note:   "std = unmodified system, cc = compression cache; _rw touches write one word per page, _ro only read.",
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.SizeMB),
			fmt.Sprint(p.StdRW.Round(time.Microsecond)),
			fmt.Sprint(p.CCRW.Round(time.Microsecond)),
			fmt.Sprint(p.StdRO.Round(time.Microsecond)),
			fmt.Sprint(p.CCRO.Round(time.Microsecond)))
	}
	return t
}

// TableB renders Figure 3(b): speedup relative to the unmodified system.
func (r *Fig3Result) TableB() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 3(b): speedup relative to the unmodified system (user memory %d MB)", r.MemoryMB),
		Header: []string{"size(MB)", "cc_rw", "cc_ro", "hit_rw", "hit_ro", "ratio"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.SizeMB),
			fmt.Sprintf("%.2f", p.SpeedRW),
			fmt.Sprintf("%.2f", p.SpeedRO),
			fmt.Sprintf("%.2f", p.CCHitRW),
			fmt.Sprintf("%.2f", p.CCHitRO),
			fmt.Sprintf("%.2f", p.CompRatio))
	}
	return t
}
