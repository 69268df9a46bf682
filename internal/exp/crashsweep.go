package exp

import (
	"context"
	"fmt"

	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/runner"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

// maxCrashPoints caps the trials per leg: each trial replays the whole run,
// so sweeping every one of W writes costs O(W^2). Legs with more writes are
// stride-sampled (first write onward, even stride) and the table reports the
// sampled/total ratio rather than pretending the sweep was exhaustive.
const maxCrashPoints = 64

// crashLeg is one machine configuration a crash sweep cuts.
type crashLeg struct {
	name string
	cfg  machine.Config
}

// crashLegs lists the configurations crashSweep and TestCrashAtEveryPoint
// cut on a machine of memoryBytes: the durable log-structured baseline (its
// segments segmentBytes long, 0 for the store's default) and the compressed
// machine with commit records. Both sweeps thrash near-incompressible pages,
// so every compression misses the 4:3 retention threshold and the clustered
// store writes every page raw: the codec changes neither the media nor
// anything recovery sees, and one codec leg is the whole of it.
func crashLegs(memoryBytes int64, segmentBytes int) []crashLeg {
	base := machine.Default(memoryBytes)
	cc := base.WithCC()
	cc.CC.Codec = "lzrw1"
	cc.Swap.CommitRecords = true
	return []crashLeg{
		{"lfs", base.WithLFS(swap.LFSConfig{SegmentBytes: segmentBytes, Durable: true})},
		{"cc/lzrw1", cc},
	}
}

// crashSweep crash-tests the recoverable backing-store formats. For each of
// crashLegs it first runs a write-heavy thrasher fault-free to count the
// run's device writes, then replays the run with the power cut at the k-th
// write (every write, stride-sampled past maxCrashPoints), reboots a machine
// from the torn media image, and holds the recovery to the
// crash-consistency oracle: no acknowledged-durable page lost, no torn
// fragment served. Every sampled crash point of every leg must verify for
// the experiment to produce a table at all; the table reports what recovery
// saw along the way.
func crashSweep(ctx context.Context, o Options) (Result, error) {
	memoryMB, _ := o.sizing()
	const seed = 1
	// A quarter overcommit keeps the write count tractable (each write is a
	// crash point, each crash point a full replay) while still paging.
	// Near-incompressible pages force the compression cache to reject all
	// of them to the clustered store — crash points need device writes to
	// cut.
	frames := int32(int64(memoryMB) << 20 / 4096)
	pages := frames + frames/4
	w := &workload.Thrasher{Pages: pages, Write: true, Passes: 1, CompressTarget: 0.85, Seed: seed}
	legs := crashLegs(int64(memoryMB)<<20, 0)
	t := &Table{
		Title:  "Extension: crash-point sweep (power cut at the k-th device write, reboot, recover, verify)",
		Header: []string{"configuration", "crash points", "recovered pages", "stale", "torn discarded", "verified"},
		Note: "Each crash point is one full run killed at its k-th device write; 'crash points' is\n" +
			"sampled/total writes. 'recovered pages' sums the pages recovery reindexed across all crash\n" +
			"points; 'torn discarded' counts checksum-failed records the scanner refused. A row only\n" +
			"prints if every sampled crash point passed the oracle.",
	}
	// Fault-free runs count each leg's device writes. Each is one crash
	// point, and the crash replays are byte-identical up to their cut, so
	// writes 1..W all occur in every replay.
	jobs := make([]job, len(legs))
	for i, l := range legs {
		jobs[i] = job{l.cfg, w}
	}
	baselines, err := measureAll(ctx, o.Parallelism, jobs)
	if err != nil {
		return nil, fmt.Errorf("crash sweep baselines: %w", err)
	}
	for i, l := range legs {
		writes := int(baselines[i].Disk.Writes)
		stride := max(1, (writes+maxCrashPoints-1)/maxCrashPoints)
		var points []uint64
		for k := 1; k <= writes; k += stride {
			points = append(points, uint64(k))
		}
		reps, err := runner.Map(ctx, o.Parallelism, len(points),
			func(_ context.Context, j int) (swap.RecoveryReport, error) {
				return crashTrial(l.cfg, workload.Clone(w), seed, points[j])
			})
		if err != nil {
			return nil, fmt.Errorf("crash sweep %s: %w", l.name, err)
		}
		var total swap.RecoveryReport
		for _, rep := range reps {
			total.RecoveredPages += rep.RecoveredPages
			total.StalePages += rep.StalePages
			total.TornDiscarded += rep.TornDiscarded
		}
		name := l.name
		if l.cfg.LFSSwap != nil {
			name += " (durable)"
		}
		t.AddRow(name,
			fmt.Sprintf("%d/%d", len(points), writes),
			fmt.Sprintf("%d", total.RecoveredPages),
			fmt.Sprintf("%d", total.StalePages),
			fmt.Sprintf("%d", total.TornDiscarded),
			fmt.Sprintf("%d/%d ok", len(points), len(points)))
	}
	return t, nil
}

// crashTrial kills one run at its k-th device write, reboots from the torn
// media, and verifies the recovered store against the crashed machine's
// in-memory state.
func crashTrial(cfg machine.Config, w workload.Workload, seed int64, k uint64) (swap.RecoveryReport, error) {
	crashed := cfg.WithFaults(fault.Config{Seed: seed, CrashAtWrite: k})
	m, err := machine.New(crashed)
	if err != nil {
		return swap.RecoveryReport{}, err
	}
	// The dead machine's Space accessors are no-ops, so the workload runs to
	// its natural end; any error it reports must trace back to the cut.
	if err := w.Run(m); err != nil && !fault.IsCrash(err) {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: run failed before the cut: %w", k, err)
	}
	if !m.Introspect().Injector.Crashed() {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: the cut never fired (run has fewer writes than the baseline)", k)
	}
	if merr := m.Err(); merr != nil && !fault.IsCrash(merr) {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: machine died of a non-crash error: %w", k, merr)
	}
	// Wherever the cut fell, what the dead machine remembers of its clean
	// pages' compressed forms is what the codec makes of them, and of its
	// evicted pages' plaintext what the codec makes of their cache entries.
	if err := m.VerifyCompressMemo(); err != nil {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: %w", k, err)
	}
	if err := m.VerifyPlainMemo(); err != nil {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: %w", k, err)
	}

	reborn, err := machine.NewFromMedia(cfg, m.FS.Image())
	if err != nil {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: reboot failed: %w", k, err)
	}
	if err := reborn.VerifyRecovery(m); err != nil {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: %w", k, err)
	}
	if err := reborn.CheckInvariants(); err != nil {
		return swap.RecoveryReport{}, fmt.Errorf("crash point %d: rebooted machine fails invariants: %w", k, err)
	}
	return *reborn.Introspect().Recovery, nil
}
