package exp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

// TestParallelMatchesSerial: measureAll, which every sweep fans out
// through, returns the same stats.Run for every job, field for field, with
// one worker or four. TestRegistry holds each experiment's rendered cells to
// its -j 1 golden; this holds the counters no table prints as well. The
// jobs are a durable LFS machine and a compressed one per codec.
func TestParallelMatchesSerial(t *testing.T) {
	w := &workload.Thrasher{Pages: 80, Write: true, Passes: 1, CompressTarget: 0.85, Seed: 5}
	base := machine.Default(64 * 4096)
	jobs := []job{{base.WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true}), w}}
	for _, codec := range compress.Names() {
		cfg := base.WithCC()
		cfg.CC.Codec = codec
		cfg.Swap.CommitRecords = true
		jobs = append(jobs, job{cfg, w})
	}
	serial, err := measureAll(context.Background(), 1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := measureAll(context.Background(), 4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("job %d differs between 1 and 4 workers:\n%+v\nvs\n%+v", i, serial[i], parallel[i])
		}
	}
}

// RunBoth's contract predates the runner: the two-machine comparison must
// come back identical whether the machines run serially or concurrently.
func TestRunBothNMatchesRunBoth(t *testing.T) {
	memoryMB, ws := table1Workloads(Small, 42)
	cfgStd := machine.Default(int64(memoryMB) << 20)
	cfgCC := cfgStd.WithCC()
	// Table 1 measures each row as RunBoth does, Measure on a Clone,
	// baseline then compression cache, and its rows are the same at any
	// Parallelism (TestRegistry/table1).
	row := result[*Table1Result](t, "table1").Rows[0].Cmp
	parallel, err := workload.RunBothN(context.Background(), cfgStd, cfgCC, workload.Clone(ws[0]), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, parallel) {
		t.Fatalf("RunBothN(2) differs from Table 1's row:\n%+v\nvs\n%+v", parallel, row)
	}
}

// TestCancelledContextRunsNoJob: every registered experiment handed a done
// context returns an error wrapping context.Canceled and no result, having
// built no machine. A small-scale machine allocates its 1-MB frame pool up
// front, so a run that allocates less than a quarter of that built none.
func TestCancelledContextRunsNoJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Experiments() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := e.Run(ctx, Options{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: result %v, error %v; want no result and context.Canceled", e.Name, res, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
			t.Errorf("%s: allocated %d bytes under a cancelled context; a machine was built", e.Name, alloc)
		}
	}
}
