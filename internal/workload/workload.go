// Package workload re-implements the applications the paper's §5 evaluates:
//
//   - thrasher — the contrived VM-thrashing program of §5.1 that bounds the
//     maximum possible improvement (Figure 3);
//   - compare — Lopresti's dynamic-programming file differencer, the paper's
//     best case (2.68x speedup, pages compress ~3:1);
//   - isca — Dubnicki's adjustable-block-size coherent-cache simulator,
//     CPU- and memory-intensive (1.60x);
//   - sort — quicksort over ~12 MB of words, in "partial" (nearly sorted,
//     repetitive, 1.30x) and "random" (shuffled, 98% uncompressible, 0.91x)
//     variants;
//   - gold — the Gold Mailer's main-memory inverted-index engine, in
//     create/cold/warm phases (0.90x/0.80x/0.73x).
//
// Each workload allocates its data inside a simulated address space, so the
// compression ratios and fault patterns the machine observes are real
// properties of real bytes, not assumptions.
package workload

import (
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/stats"
)

// Workload is a program that runs against a simulated machine. Run should
// call m.MarkStart after its setup phase so Elapsed measures the benchmarked
// portion, and m.Drain before returning so queued background writes are
// charged.
type Workload interface {
	// Name is a short identifier ("thrasher", "compare", ...).
	Name() string

	// Run executes the workload to completion on m.
	Run(m *machine.Machine) error
}

// Measure builds a machine from cfg (passing any machine options through),
// runs w, and returns the final stats.
func Measure(cfg machine.Config, w Workload, opts ...machine.Option) (stats.Run, error) {
	_, st, err := MeasureMachine(cfg, w, opts...)
	return st, err
}

// MeasureMachine is Measure for callers that also need the machine after the
// run — typically to read its event ring (Machine.Events) or metrics
// snapshot, which stats.Run does not carry. The machine is returned even on
// error (nil only if construction itself failed), so a died run's trace can
// still be inspected.
func MeasureMachine(cfg machine.Config, w Workload, opts ...machine.Option) (*machine.Machine, stats.Run, error) {
	m, err := machine.New(cfg, opts...)
	if err != nil {
		return nil, stats.Run{}, err
	}
	if err := w.Run(m); err != nil {
		return m, stats.Run{}, fmt.Errorf("workload %s: %w", w.Name(), err)
	}
	// A paging failure inside the run sticks to the machine rather than
	// aborting mid-workload; surface it here so a died run reports its typed
	// error (fault.IsUnrecoverable distinguishes data loss from bugs).
	if err := m.Err(); err != nil {
		return m, stats.Run{}, fmt.Errorf("workload %s: %w", w.Name(), err)
	}
	if err := m.CheckInvariants(); err != nil {
		return m, stats.Run{}, fmt.Errorf("workload %s: post-run invariant violation: %w", w.Name(), err)
	}
	return m, m.Stats(), nil
}

// Comparison is the outcome of running one workload on the baseline machine
// and on the compression-cache machine, the shape of one Table 1 row.
type Comparison struct {
	Workload string
	Std      stats.Run
	CC       stats.Run
}

// Speedup reports Std time / CC time (>1 means the compression cache wins).
func (c Comparison) Speedup() float64 {
	if c.CC.Time == 0 {
		return 0
	}
	return float64(c.Std.Time) / float64(c.CC.Time)
}

// RunBoth runs w under both configurations, the baseline and then the
// compression cache, each on its own Clone of w. cc must have the
// compression cache enabled; base must not. Options apply to both machines.
func RunBoth(base, cc machine.Config, w Workload, opts ...machine.Option) (Comparison, error) {
	if base.CC.Enabled || !cc.CC.Enabled {
		return Comparison{}, fmt.Errorf("workload: RunBoth needs a baseline and a CC configuration, in that order")
	}
	std, err := Measure(base, Clone(w), opts...)
	if err != nil {
		return Comparison{}, err
	}
	withCC, err := Measure(cc, Clone(w), opts...)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Workload: w.Name(), Std: std, CC: withCC}, nil
}
