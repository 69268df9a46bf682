// Package sim is a minimal stand-in for the discrete-event kernel, matched
// by kernelproto's internal/sim suffix rule. The kernel IS the baton
// implementation: every primitive the analyzer knows appears here, and none
// is a finding.
package sim

import (
	"sync"
	"sync/atomic"
)

// Time is virtual time.
type Time int64

// ActorID names an actor.
type ActorID int32

// Kernel hands a baton around its actors.
type Kernel struct {
	mu     sync.Mutex
	once   sync.Once
	now    Time
	events atomic.Int64
	yield  chan ActorID
	resume chan Time
}

// Go starts fn as an actor body on a goroutine of its own.
func (k *Kernel) Go(id ActorID, fn func()) {
	k.once.Do(func() { k.yield, k.resume = make(chan ActorID), make(chan Time) })
	go func() {
		fn()
		k.yield <- id
	}()
}

// Run dispatches until the yield channel is closed.
func (k *Kernel) Run() {
	for range k.yield {
		k.events.Add(1)
		select {
		case k.resume <- k.now:
		default:
		}
	}
}

// Stop ends Run.
func (k *Kernel) Stop() { close(k.yield) }

// Wait parks the calling actor until the virtual instant; it is the
// baton-sanctioned way an actor body blocks.
func (k *Kernel) Wait(id ActorID, until Time) Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	if until > k.now {
		k.now = until
	}
	k.yield <- id
	return <-k.resume
}
