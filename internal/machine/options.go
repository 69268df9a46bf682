package machine

import (
	"compcache/internal/fault"
	"compcache/internal/obs"
	"compcache/internal/sim"
	"compcache/internal/swap"
)

// Option customizes machine assembly beyond the value-typed Config. The
// options path is the one place cross-cutting attachments land — the
// observability bus, the discrete-event kernel, the fleet's remote page
// store — so Config stays a plain, comparable description of the simulated
// hardware while everything that wires the machine into a larger harness
// arrives explicitly at construction:
//
//	m, err := machine.New(cfg, machine.WithObs(obs.Options{}), machine.WithKernel(k, 3))
type Option func(*buildOpts)

// buildOpts collects every Option before assembly.
type buildOpts struct {
	obs    *obs.Options
	kernel *sim.Kernel
	actor  sim.ActorID
	remote Tier
}

// WithObs attaches the observability layer: every subsystem emits
// virtual-time events onto the machine's bus and feeds the metrics registry
// (the zero obs.Options traces every class into the default ring). Without
// this option observation is disabled entirely — each probe site then costs
// one nil test.
func WithObs(o obs.Options) Option {
	return func(b *buildOpts) { b.obs = &o }
}

// WithKernel attaches the machine's clock to a shared discrete-event kernel
// as actor id, making the machine one actor of a co-advancing fleet.
//
// Kernel-attachment contract: the attachment happens once, at construction
// time, before any virtual time passes — construction charges accrue while
// the kernel is not yet running and land directly on the actor's clock.
// After construction the machine's program (the workload driving it) must
// run inside kernel.Go/Run, where every Clock.Advance/AdvanceTo becomes a
// kernel-mediated wait; driving an attached machine outside the kernel's
// scheduler panics on the first wait. Each machine of a fleet needs a
// distinct actor id, and the id doubles as the event tie-breaker, so fleet
// composition — not attachment order — determines the schedule. Attached
// machines cannot use Machine.Snapshot (the kernel snapshots instead; see
// sim.Kernel.Snap).
func WithKernel(k *sim.Kernel, id sim.ActorID) Option {
	return func(b *buildOpts) {
		b.kernel = k
		b.actor = id
	}
}

// WithRemote attaches fleet-level memory as the first tier below the
// compression cache: evicted pages are offered to it before the local backing
// store, and faults consult it first. The cluster package implements it with
// sibling-machine memory and a shared page server. Fleet memory holds pages
// in the checksummed travel form a compression-cache machine produces, so New
// refuses the option on a machine without one.
func WithRemote(t Tier) Option {
	return func(b *buildOpts) { b.remote = t }
}

// Introspection bundles the read-only wiring handles a harness occasionally
// needs after construction — the event bus, the fault injector and the
// mount-time recovery report. Each field is nil when the corresponding
// subsystem is absent. The measurement API (Stats, Events, Metrics, Faults,
// Err) and the reboot check (VerifyRecovery) stay on Machine itself.
type Introspection struct {
	// Bus is the machine's event bus (nil without WithObs).
	Bus *obs.Bus
	// Injector is the deterministic fault injector (nil without
	// Config.Faults). Harnesses read whether the crash point fired and the
	// injection counters from it.
	Injector *fault.Injector
	// Recovery is the mount-time recovery report for machines booted with
	// NewFromMedia.
	Recovery *swap.RecoveryReport
}

// Introspect returns the machine's wiring handles. See Introspection.
func (m *Machine) Introspect() Introspection {
	return Introspection{Bus: m.bus, Injector: m.faults, Recovery: m.recovery}
}
