package main

import (
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

// scale selects input sizes. The sizes are constants, fixed once on the
// reference box (see README.md) and never derived from the host: two
// commits are only comparable if they simulate the same thing.
type scale int

const (
	full  scale = iota // the ledger's sizes: about 3 host seconds per rep
	smoke              // a tenth of that: the warm-up rep and the test
)

func (s scale) String() string {
	if s == smoke {
		return "smoke"
	}
	return "full"
}

// workloadDef is one ledger workload: a fixed list of legs for a scale and
// seed.
type workloadDef struct {
	name string
	why  string
	legs func(sc scale, seed int64) []leg
	// holds, when set, is the property the workload was built to have; a rep
	// without it measures something else and fails.
	holds func(t totals) error
	// table1 marks the workload whose std/cc leg pairs are the paper's Table 1
	// rows, the only ones with a published reference to be accurate against.
	table1 bool
}

var workloads = []workloadDef{
	{name: "apps", legs: appsLegs, table1: true,
		why: "Table 1 (7 applications x {std, cc}): what users wait on, codec-bound, the only workload with a published reference"},
	{name: "resident", legs: residentLegs, holds: neverPages,
		why: "the same applications with memory to spare: only the reference path (Space, vm, LRU, clock) runs, with and without cc"},
	{name: "stores", legs: storesLegs,
		why: "thrasher on five store configurations with cheap or no compression: fault-bound swap, fs, disk, policy and core work"},
	{name: "fleet", legs: fleetLegs,
		why: "three fleet cells on kernel-attached clocks: kernel hand-offs, page server, netdev, obs emission, kernel snapshot"},
}

// neverPages is resident's reason to exist: every fault is a cold one and the
// codec never runs.
func neverPages(t totals) error {
	if vm := t.run.VM; vm.Faults != vm.ColdFaults || t.run.Comp.Compressions != 0 {
		return fmt.Errorf("%d faults of which %d cold, %d compressions: the working set no longer fits",
			vm.Faults, vm.ColdFaults, t.run.Comp.Compressions)
	}
	return nil
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

const pageSize = 4096

// stdAndCC returns the baseline and compression-cache legs of one
// application, as one Table 1 row runs them.
func stdAndCC(memBytes int64, w func() workload.Workload) []leg {
	name := w().Name()
	return []leg{
		machineLeg(name+"/std", machine.Default(memBytes), w),
		machineLeg(name+"/cc", machine.Default(memBytes).WithCC(), w),
	}
}

// appsLegs is Table 1 in the paper's row order, every application on the
// baseline and on the compression-cache machine. The inputs are exp's small
// scale cut down (half the memory and about half the input, gold by more) so
// that a rep takes seconds instead of the small scale's twenty: the gold cc
// legs still page hardest and still dominate the rep, which is the property
// the workload exists for.
func appsLegs(sc scale, seed int64) []leg {
	mem := int64(512 << 10)
	n, refs, sortBytes, msgs, queries := 2048, 1<<15, int64(3<<20/4), 2000, 600
	if sc == smoke {
		n, refs, sortBytes, msgs, queries = 512, 1<<12, 3<<20/16, 500, 100
	}
	gold := func(phase workload.GoldPhase) func() workload.Workload {
		return func() workload.Workload {
			return &workload.Gold{Messages: msgs, WordsPerMessage: 24, VocabWords: 2000,
				Queries: queries, Phase: phase, Seed: seed}
		}
	}
	sorter := func(mode workload.SortMode) func() workload.Workload {
		return func() workload.Workload {
			return &workload.Sort{Bytes: sortBytes, Mode: mode, VocabWords: 4000, Seed: seed}
		}
	}
	var legs []leg
	for _, w := range []func() workload.Workload{
		func() workload.Workload { return &workload.Compare{N: n, Band: 512, Seed: seed} },
		func() workload.Workload {
			return &workload.CacheSim{CPUs: 4, Sets: 256, Ways: 2, AddrWords: 1 << 16,
				BlockWordsList: []int{4, 16}, Refs: refs, Seed: seed}
		},
		sorter(workload.SortPartial),
		gold(workload.GoldCreate),
		gold(workload.GoldCold),
		sorter(workload.SortRandom),
		gold(workload.GoldWarm),
	} {
		legs = append(legs, stdAndCC(mem, w)...)
	}
	return legs
}

// residentLegs runs compare, isca and both sorts with enough memory that the
// only faults are cold ones. A cc-enabled machine that never pages must cost
// what a baseline one costs, so half the legs enable it.
func residentLegs(sc scale, seed int64) []leg {
	mem := int64(8 << 20)
	n, refs, sortBytes := 4096, 1<<18, int64(3<<20)
	if sc == smoke {
		n, refs, sortBytes = 512, 1<<14, 3<<20/8
	}
	var legs []leg
	for _, w := range []func() workload.Workload{
		func() workload.Workload { return &workload.Compare{N: n, Band: 512, Seed: seed} },
		func() workload.Workload {
			return &workload.CacheSim{CPUs: 4, Sets: 256, Ways: 2, AddrWords: 1 << 17,
				BlockWordsList: []int{4, 16}, Refs: refs, Seed: seed}
		},
		func() workload.Workload {
			return &workload.Sort{Bytes: sortBytes, Mode: workload.SortPartial, VocabWords: 4000, Seed: seed}
		},
		func() workload.Workload {
			return &workload.Sort{Bytes: sortBytes, Mode: workload.SortRandom, VocabWords: 4000, Seed: seed}
		},
	} {
		legs = append(legs, stdAndCC(mem, w)...)
	}
	return legs
}

// storesLegs thrashes five store configurations. The codec is out of the
// way on purpose: three legs have none, clustered_rw uses the null codec (so
// every page misses the 4:3 threshold and travels through the clustered
// store raw), and only cc_overflow_rw compresses, with a working set several
// times what the cache holds so the cleaner and the store run beside it.
func storesLegs(sc scale, seed int64) []leg {
	mem := int64(1 << 20)
	frames := int32(mem / pageSize)
	passes := 240
	if sc == smoke {
		passes = 24
	}
	thrash := func(pages int32, write bool, passes int) func() workload.Workload {
		return func() workload.Workload {
			return &workload.Thrasher{Pages: pages, Write: write, Passes: passes, Seed: seed}
		}
	}
	nullCC := machine.Default(mem).WithCC()
	nullCC.CC.Codec = "null"
	// The overflow leg pins the cache at half of memory and turns the swap
	// file's compaction off. Left adaptive, how far the cache grows — and with
	// it how much spills, and whether one or two 7-MB compaction passes fall
	// inside the run — swings with the seed by tens of percent; compaction is
	// measured in clustered_rw, where ~1900 passes make one more invisible.
	overflow := machine.Default(mem).WithCC()
	overflow.CC.MaxFrames = int(frames) / 2
	overflow.Swap.GCTriggerFrac = 1
	return []leg{
		machineLeg("direct_ro", machine.Default(mem), thrash(4*frames, false, 2*passes)),
		machineLeg("direct_rw", machine.Default(mem), thrash(4*frames, true, passes)),
		machineLeg("lfs_rw", machine.Default(mem).WithLFS(swap.LFSConfig{}), thrash(4*frames, true, passes)),
		machineLeg("clustered_rw", nullCC, thrash(4*frames, true, passes)),
		machineLeg("cc_overflow_rw", overflow, thrash(6*frames, true, passes/20)),
	}
}

// fleetLegs runs three cells of exp's fleet sweep with observability on:
// one machine alone on its kernel, four machines contending for the server,
// and four on the slow link with the other codec family.
func fleetLegs(sc scale, seed int64) []leg {
	mem := int64(1 << 20)
	pages, passes := int32(3*mem/pageSize), 10
	if sc == smoke {
		mem = 256 << 10
		pages, passes = int32(3*mem/pageSize), 3
	}
	return []leg{
		fleetLeg("1_eth10_lzrw1", 1, netdev.Ethernet10(), "lzrw1", mem, pages, passes, seed),
		fleetLeg("4_eth10_lzrw1", 4, netdev.Ethernet10(), "lzrw1", mem, pages, passes, seed),
		fleetLeg("4_wireless2_fpc", 4, netdev.Wireless2(), "fpc", mem, pages, passes, seed),
	}
}
