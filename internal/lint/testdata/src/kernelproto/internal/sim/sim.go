// Package sim is a minimal stand-in for the discrete-event kernel. Its actors
// are coroutines resumed by plain calls, so it needs no goroutine, channel or
// lock, and kernelproto scans it like any other package: none of what is here
// is a finding, and a primitive slipped into it would be.
package sim

// Time is virtual time.
type Time int64

// ActorID names an actor.
type ActorID int32

// Kernel hands a baton around its actors.
type Kernel struct {
	now    Time
	events int64
	ready  []func()
}

// Go queues fn as an actor body; Run resumes it.
func (k *Kernel) Go(id ActorID, fn func()) { k.ready = append(k.ready, fn) }

// Run resumes queued actor bodies until none is left.
func (k *Kernel) Run() {
	for len(k.ready) > 0 {
		fn := k.ready[0]
		k.ready = k.ready[1:]
		k.events++
		fn()
	}
}

// Wait moves the calling actor to the virtual instant; it is the
// baton-sanctioned way an actor body blocks.
func (k *Kernel) Wait(id ActorID, until Time) Time {
	if until > k.now {
		k.now = until
	}
	return k.now
}
