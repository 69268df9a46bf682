package exp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"compcache/internal/machine"
	"compcache/internal/workload"
)

// TestParallelMatchesSerial is the acceptance bar for the parallel runner:
// every registered experiment that fans out renders byte-for-byte the same
// output at Parallelism 1 and 4. Each simulated machine runs on its own
// virtual clock with its own cloned workload, so host-side scheduling must
// be invisible in the results. An entry runs the registered experiment, or
// a subset of its grid where the whole one is too slow for a unit test.
func TestParallelMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(ctx context.Context, o Options) (Result, error)
	}{
		// Table 1's first three rows; the serial run is shared with
		// TestRunBothNMatchesRunBoth.
		{"table1", func(ctx context.Context, o Options) (Result, error) {
			if o.Parallelism == 1 {
				return serialTable1()
			}
			return table1Subset(ctx, o.Parallelism)
		}},
		// Figure 3's first three sizes: 12 machines, enough to overlap
		// workers.
		{"fig3", func(ctx context.Context, o Options) (Result, error) {
			sz := fig3Sizes[Small]
			return fig3Sweep(ctx, o.Parallelism, sz.memoryMB, sz.sizesMB[:3], 1)
		}},
		// Faults included: only the injector seeds vary between trials.
		{"faults", func(ctx context.Context, o Options) (Result, error) {
			return smallFaults(ctx, o.Parallelism)
		}},
		// The percentile columns come out of a map of histogram buckets
		// (histAgg); reading it in iteration order instead of sorted order
		// shows up here as two runs disagreeing.
		{"ext/fleet-sweep", fleetSweep},
		// One tiny leg (TestCrashAtEveryPoint's cc/lzrw1): its aggregate
		// recovery reports must not depend on which worker replayed which
		// crash point.
		{"ext/crash-sweep", func(ctx context.Context, o Options) (Result, error) {
			leg := crashLeg{"cc/lzrw1", tinyCrashLegs()["cc/lzrw1"]}
			return crashTable(ctx, o.Parallelism, []crashLeg{leg}, tinyCrashWorkload, 5)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := Lookup(c.name); !ok {
				t.Fatalf("%q is not a registered experiment", c.name)
			}
			render := func(parallelism int) string {
				o := DefaultOptions(Small)
				o.Parallelism = parallelism
				res, err := c.run(context.Background(), o)
				if err != nil {
					t.Fatalf("parallelism %d: %v", parallelism, err)
				}
				var b strings.Builder
				for _, tab := range res.Tables() {
					b.WriteString(tab.String() + tab.CSV())
				}
				return b.String()
			}
			if serial, parallel := render(1), render(4); serial != parallel {
				t.Fatalf("%s differs between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s", c.name, serial, parallel)
			}
		})
	}
}

// RunBoth's contract predates the runner: the two-machine comparison must
// come back identical whether the machines run serially or concurrently.
func TestRunBothNMatchesRunBoth(t *testing.T) {
	memoryMB, ws := table1Workloads(Small, 42)
	cfgStd := machine.Default(int64(memoryMB) << 20)
	cfgCC := cfgStd.WithCC()
	// Table 1 at -j 1 measures each row exactly as RunBoth does: Measure on a
	// Clone, baseline then compression cache.
	full, err := serialTable1()
	if err != nil {
		t.Fatal(err)
	}
	serial := full.(*Table1Result).Rows[0].Cmp
	parallel, err := workload.RunBothN(context.Background(), cfgStd, cfgCC, workload.Clone(ws[0]), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("RunBothN(2) differs from RunBoth:\n%+v\nvs\n%+v", parallel, serial)
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
		res, err := e.Run(ctx, DefaultOptions(Small))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: result %v, error %v; want no result and context.Canceled", e.Name, res, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
			t.Errorf("%s: allocated %d bytes under a cancelled context; a machine was built", e.Name, alloc)
		}
	}
}
