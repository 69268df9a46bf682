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
// jobs are a durable LFS machine under the thrasher and a compressed one
// per codec under compare, whose DP rows every codec but null shrinks past
// the 4:3 threshold (the thrasher's pages defeat fpc and rle), so each of
// those jobs sends fragments through the cache and into the clustered store.
func TestParallelMatchesSerial(t *testing.T) {
	base := machine.Default(64 * 4096)
	jobs := []job{{
		base.WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true}),
		&workload.Thrasher{Pages: 80, Write: true, Passes: 1, CompressTarget: 0.85, Seed: 5},
	}}
	for _, codec := range compress.Names() {
		cfg := base.WithCC()
		cfg.CC.Codec = codec
		cfg.Swap.CommitRecords = true
		jobs = append(jobs, job{cfg, &workload.Compare{N: 2048, Band: 256, Seed: 5}})
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
	for i, codec := range compress.Names() {
		run := serial[i+1]
		if run.Swap.PagesOut == 0 {
			t.Errorf("%s: no page reached the clustered store", codec)
		}
		// null is the identity codec: every page it is given stays raw.
		if compressed := run.Comp.CompressibleOut > 0; compressed != (codec != "null") {
			t.Errorf("%s: %d compressed bytes met the threshold", codec, run.Comp.CompressibleOut)
		}
	}
}

// TestRunBothMatchesTable1Row: RunBoth measures a Table 1 row exactly as
// table1 does, Measure on a Clone, baseline then compression cache, and
// table1's rows are the same at any Parallelism (TestRegistry/table1).
func TestRunBothMatchesTable1Row(t *testing.T) {
	memoryMB, ws := table1Workloads(Small, 42)
	cfgStd := machine.Default(int64(memoryMB) << 20)
	row := result[*Table1Result](t, "table1").Rows[0].Cmp
	cmp, err := workload.RunBoth(cfgStd, cfgStd.WithCC(), ws[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, cmp) {
		t.Fatalf("RunBoth differs from Table 1's row:\n%+v\nvs\n%+v", cmp, row)
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
