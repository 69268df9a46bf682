package exp

import (
	"context"
	"reflect"
	"testing"

	"compcache/internal/machine"
	"compcache/internal/workload"
)

// The acceptance bar for the parallel runner: the rendered experiment
// output must be byte-for-byte identical at any parallelism. Each simulated
// machine runs on its own virtual clock with its own cloned workload, so
// host-side scheduling must be invisible in the results.

func TestTable1ParallelMatchesSerial(t *testing.T) {
	ser, err := serialTable1()
	if err != nil {
		t.Fatal(err)
	}
	// Three rows keep both runs affordable; they cover all
	// mutable-receiver workload kinds (Compare, CacheSim, Sort).
	opts := DefaultTable1Options(Small)
	opts.Workloads = opts.Workloads[:3]
	opts.Parallelism = 4
	res, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	serial := ser.Table().String()
	if parallel := res.Table().String(); serial != parallel {
		t.Fatalf("Table 1 differs between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestFig3ParallelMatchesSerial(t *testing.T) {
	render := func(parallelism int) string {
		opts := DefaultFig3Options(Small)
		opts.SizesMB = opts.SizesMB[:3] // 12 machines; enough to overlap workers
		opts.Parallelism = parallelism
		res, err := Fig3(opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res.TableA().String() + res.TableB().String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("Figure 3 differs between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// The fleet sweep's percentile columns come out of a map of histogram
// buckets (histAgg); reading it in iteration order instead of sorted order
// shows up here as two runs disagreeing.
func TestFleetSweepParallelMatchesSerial(t *testing.T) {
	render := func(parallelism int) string {
		opts := DefaultOptions(Small)
		memMB, pages := opts.sizing()
		tab, err := FleetSweep(memMB, pages, opts.seed(), parallelism, "")
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return tab.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("fleet sweep differs between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// RunBoth's contract predates the runner: the two-machine comparison must
// come back identical whether the machines run serially or concurrently.
func TestRunBothNMatchesRunBoth(t *testing.T) {
	opts := DefaultTable1Options(Small)
	w := opts.Workloads[0]
	cfgStd := machine.Default(int64(opts.MemoryMB) << 20)
	cfgCC := cfgStd.WithCC()
	// Table 1 at -j 1 measures each row exactly as RunBoth does: Measure on a
	// Clone, baseline then compression cache.
	full, err := serialTable1()
	if err != nil {
		t.Fatal(err)
	}
	serial := full.Rows[0].Cmp
	parallel, err := workload.RunBothN(context.Background(), cfgStd, cfgCC, workload.Clone(w), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("RunBothN(2) differs from RunBoth:\n%+v\nvs\n%+v", parallel, serial)
	}
}
