package workload

import (
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/sim"
)

// Multi runs several workloads as concurrent processes on one machine,
// interleaved in fixed quanta of simulated references. The paper's memory
// trade is defined over "the collective working set of active processes";
// Multi is how that situation is created: each member gets its own segments,
// and the three-way policy arbitrates the shared frames among all of them.
//
// Scheduling is deterministic round-robin, and the scheduler is a sim.Kernel
// of Multi's own: every member is an actor whose clock counts the quanta it
// has used, a member that reaches the end of its quantum advances that clock
// by one, and the kernel's (time, actor, seq) order then hands the baton to
// the next unfinished member. Exactly one member touches the machine at a
// time, so the simulation stays single-threaded and reproducible.
type Multi struct {
	// Workloads are the member processes.
	Workloads []Workload

	// QuantumRefs is the context-switch interval in simulated references
	// (default 2000 — a few simulated milliseconds).
	QuantumRefs int
}

// Name implements Workload.
func (mw *Multi) Name() string {
	name := "multi"
	for _, w := range mw.Workloads {
		name += "+" + w.Name()
	}
	return name
}

// Run implements Workload.
func (mw *Multi) Run(m *machine.Machine) error {
	if len(mw.Workloads) == 0 {
		return fmt.Errorf("multi: no workloads")
	}
	quantum := mw.QuantumRefs
	if quantum <= 0 {
		quantum = 2000
	}
	m.FreezeStart()

	k := sim.NewKernel()
	turns := make([]*sim.Clock, len(mw.Workloads))
	errs := make([]error, len(mw.Workloads))
	cur, refs := 0, 0
	for i, w := range mw.Workloads {
		turns[i] = k.NewClock(sim.ActorID(i))
		k.Go(sim.ActorID(i), func() {
			cur = i
			errs[i] = w.Run(m)
		})
	}
	// The reference count runs across members: one that finishes mid-quantum
	// leaves its successor the rest of the slice. A lone survivor's advance
	// finds the kernel's heap empty and returns without a switch.
	var prev func(seg, page int32, write bool)
	prev = m.VM.SetTraceHook(func(seg, page int32, write bool) {
		if prev != nil {
			prev(seg, page, write)
		}
		if refs++; refs >= quantum {
			refs = 0
			me := cur
			turns[me].Advance(1)
			cur = me
		}
	})
	defer m.VM.SetTraceHook(prev)
	k.Run()

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("multi: %s: %w", mw.Workloads[i].Name(), err)
		}
	}
	m.Drain()
	return nil
}
