package exp

import (
	"context"
	"fmt"
	"time"

	"compcache/internal/machine"
	"compcache/internal/workload"
)

// PaperRow is the published Table 1 figure for one application, used for
// side-by-side comparison in the output and in EXPERIMENTS.md.
type PaperRow struct {
	Speedup       float64
	RatioPct      float64 // compression ratio (% of original size)
	UncompressPct float64 // pages compressing worse than 4:3 (%)
}

// paperTable1 is Table 1 of the paper, in its row order.
var paperTable1 = map[string]PaperRow{
	"compare":      {2.68, 31, 0.1},
	"isca":         {1.60, 32, 1.7},
	"sort_partial": {1.30, 30, 49},
	"gold_create":  {0.90, 59, 42},
	"gold_cold":    {0.80, 60, 10},
	"sort_random":  {0.91, 37, 98},
	"gold_warm":    {0.73, 52, 0.9},
}

// PaperTable1 returns the published row for a workload name (ok=false for
// unknown names).
func PaperTable1(name string) (PaperRow, bool) {
	r, ok := paperTable1[name]
	return r, ok
}

// Table1Row is one measured application comparison.
type Table1Row struct {
	Name  string
	Cmp   workload.Comparison
	Paper PaperRow
}

// Table1Result is the whole measured table.
type Table1Result struct {
	MemoryMB int
	Rows     []Table1Row
}

// table1Workloads returns Table 1's user memory and application set for a
// scale, in the paper's row order, every workload seeded with seed. Paper
// scale sizes working sets at roughly 1.5-3x user memory, the same pressure
// regime as the paper's 14-MByte configuration.
func table1Workloads(s Scale, seed int64) (memoryMB int, ws []workload.Workload) {
	if s == Paper {
		return 8, []workload.Workload{
			&workload.Compare{N: 24576, Band: 1024, Seed: seed},
			&workload.CacheSim{CPUs: 8, Sets: 2048, Ways: 2, AddrWords: 1 << 21,
				BlockWordsList: []int{4, 16, 64}, Refs: 1 << 20, Seed: seed},
			&workload.Sort{Bytes: 12 << 20, Mode: workload.SortPartial, Seed: seed},
			&workload.Gold{Messages: 60000, WordsPerMessage: 32, VocabWords: 16000,
				Queries: 20000, Phase: workload.GoldCreate, Seed: seed},
			&workload.Gold{Messages: 60000, WordsPerMessage: 32, VocabWords: 16000,
				Queries: 20000, Phase: workload.GoldCold, Seed: seed},
			&workload.Sort{Bytes: 12 << 20, Mode: workload.SortRandom, Seed: seed},
			&workload.Gold{Messages: 60000, WordsPerMessage: 32, VocabWords: 16000,
				Queries: 20000, Phase: workload.GoldWarm, Seed: seed},
		}
	}
	return 1, []workload.Workload{
		&workload.Compare{N: 4096, Band: 512, Seed: seed},
		&workload.CacheSim{CPUs: 4, Sets: 256, Ways: 2, AddrWords: 1 << 17,
			BlockWordsList: []int{4, 16}, Refs: 1 << 16, Seed: seed},
		&workload.Sort{Bytes: 3 << 20 / 2, Mode: workload.SortPartial, VocabWords: 4000, Seed: seed},
		&workload.Gold{Messages: 12000, WordsPerMessage: 24, VocabWords: 3000,
			Queries: 6000, Phase: workload.GoldCreate, Seed: seed},
		&workload.Gold{Messages: 12000, WordsPerMessage: 24, VocabWords: 3000,
			Queries: 6000, Phase: workload.GoldCold, Seed: seed},
		&workload.Sort{Bytes: 3 << 20 / 2, Mode: workload.SortRandom, VocabWords: 4000, Seed: seed},
		&workload.Gold{Messages: 12000, WordsPerMessage: 24, VocabWords: 3000,
			Queries: 6000, Phase: workload.GoldWarm, Seed: seed},
	}
}

// table1 runs every §5.2 application on the baseline and compression-cache
// machines; the result is a *Table1Result. Its built-in seed is 42.
func table1(ctx context.Context, o Options) (Result, error) {
	memoryMB, ws := table1Workloads(o.Scale, 42)
	// The 2 x len(ws) runs are independent, so they fan out; rows come back
	// in workload order.
	memBytes := int64(memoryMB) << 20
	jobs := make([]job, 0, 2*len(ws))
	for _, w := range ws {
		jobs = append(jobs,
			job{machine.Default(memBytes), w},
			job{machine.Default(memBytes).WithCC(), w})
	}
	runs, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{MemoryMB: memoryMB}
	for i, w := range ws {
		row := Table1Row{Name: w.Name(), Cmp: workload.Comparison{
			Workload: w.Name(), Std: runs[2*i], CC: runs[2*i+1]}}
		row.Paper, _ = PaperTable1(w.Name())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Tables implements Result.
func (r *Table1Result) Tables() []*Table { return []*Table{r.Table()} }

// Table renders the measured table next to the paper's published values.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Table 1: application speedups (user memory %d MB)", r.MemoryMB),
		Header: []string{"application", "time(std)", "time(cc)", "speedup", "ratio%", "uncomp%",
			"paper:speedup", "paper:ratio%", "paper:uncomp%"},
		Note: "speedup > 1 means the compression cache wins; ratio = bytes remaining after compression for retained pages;\n" +
			"uncomp = fraction of compression attempts missing the 4:3 threshold. Paper columns from Table 1 of the paper.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmtDur(row.Cmp.Std.Time),
			fmtDur(row.Cmp.CC.Time),
			fmt.Sprintf("%.2f", row.Cmp.Speedup()),
			fmt.Sprintf("%.0f", 100*row.Cmp.CC.Comp.Ratio()),
			fmt.Sprintf("%.1f", 100*row.Cmp.CC.Comp.UncompressibleFrac()),
			fmt.Sprintf("%.2f", row.Paper.Speedup),
			fmt.Sprintf("%.0f", row.Paper.RatioPct),
			fmt.Sprintf("%.1f", row.Paper.UncompressPct))
	}
	return t
}

// fmtDur prints virtual times the way the paper's Table 1 does, as
// minutes:seconds when large.
func fmtDur(d time.Duration) string {
	if d >= time.Minute {
		return fmt.Sprintf("%d:%05.2f", int(d.Minutes()), d.Seconds()-60*float64(int(d.Minutes())))
	}
	return d.Round(time.Millisecond).String()
}
