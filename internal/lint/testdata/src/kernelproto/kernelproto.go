// Package kp is a golden fixture for the kernelproto analyzer: actor
// bodies armed through Kernel.Go/Bind/Schedule (and wrappers over them)
// must not touch the host scheduler, and the clean case shows the
// baton-respecting idiom.
package kp

import (
	"sync"
	"sync/atomic"

	"compcache/kernelproto/internal/sim"
)

// BadDirect arms a literal that spawns a raw goroutine and touches a
// channel right in the body.
func BadDirect(k *sim.Kernel, ch chan int) {
	k.Go(1, func() {
		go drain(ch) // want `actor body armed in BadDirect: spawns a raw goroutine outside the kernel baton \(BadDirect\)`
		ch <- 1      // want `actor body armed in BadDirect: sends on a channel outside the kernel baton \(BadDirect\)`
	})
}

// drain is reachable from the armed literal; its channel range is
// reported with the actor→violation chain.
func drain(ch chan int) {
	for range ch { // want `actor body armed in BadDirect: ranges over a channel outside the kernel baton \(BadDirect → kp\.drain\)`
	}
}

// BadNamed arms a declared function; the BFS roots at the function
// itself, and the root name in the message is still the armer caller.
func BadNamed(k *sim.Kernel) {
	k.Bind(2, lockStep)
}

// lockStep takes a mutex: the host scheduler leaks back in.
func lockStep() {
	var mu sync.Mutex
	mu.Lock()         // want `actor body armed in BadNamed: takes sync\.Mutex\.Lock outside the kernel baton \(lockStep\)`
	defer mu.Unlock() // want `actor body armed in BadNamed: takes sync\.Mutex\.Unlock outside the kernel baton \(lockStep\)`
}

// Cluster is the wrapper shape: Go forwards fn into the kernel from
// inside a closure, so the armer fixed point must absorb it even though
// the call graph drops the plain func-value call.
type Cluster struct{ k *sim.Kernel }

// Go arms fn through the kernel on the cluster's behalf.
func (c *Cluster) Go(id sim.ActorID, fn func()) {
	c.k.Go(id, func() { fn() })
}

// BadWrapped arms a body through the wrapper; the violation is found
// even though sim.Kernel.Go never sees this literal directly.
func BadWrapped(c *Cluster, done chan struct{}) {
	c.Go(3, func() {
		close(done) // want `actor body armed in BadWrapped: closes a channel outside the kernel baton \(BadWrapped\)`
	})
}

var ticks int64

// BadScheduled arms a timer body; the atomic in the callee is the
// violation.
func BadScheduled(k *sim.Kernel) {
	k.Schedule(10, 4, tick)
}

// tick bumps a counter with sync/atomic.
func tick(now sim.Time) {
	atomic.AddInt64(&ticks, 1) // want `actor body armed in BadScheduled: performs atomic AddInt64 outside the kernel baton \(tick\)`
}

// Good arms a body that stays on the baton: kernel waits and pooled
// scratch (sync.Pool never blocks) are the allowed primitives.
func Good(k *sim.Kernel, pool *sync.Pool) {
	k.Go(5, func() {
		buf := pool.Get().([]byte)
		k.Wait(5, 100)
		pool.Put(buf[:0])
	})
}

// Worker is a dispatch seam: an actor body that calls through it can run any
// implementation in the module, so method-set resolution has to keep every
// one of them in view.
type Worker interface{ Work(ch chan int) }

// sender implements Worker by touching the channel itself.
type sender struct{}

func (sender) Work(ch chan int) {
	ch <- 1 // want `actor body armed in BadIface: sends on a channel outside the kernel baton \(BadIface → kp\.Apply → kp\.Work\)`
}

// Apply runs a worker through the interface.
func Apply(w Worker, ch chan int) { w.Work(ch) }

// BadIface reaches sender.Work through interface dispatch alone.
func BadIface(k *sim.Kernel, w Worker, ch chan int) {
	k.Go(6, func() { Apply(w, ch) })
}

// Closer is a second seam, so the embedded shape below reports on its own.
type Closer interface{ Shut(done chan struct{}) }

type closer struct{}

func (closer) Shut(done chan struct{}) {
	close(done) // want `actor body armed in BadEmbedded: closes a channel outside the kernel baton \(BadEmbedded → kp\.ApplyStage → kp\.Shut\)`
}

// Stage embeds the seam, so s.Shut is a method promoted through the embedded
// field: the selection's receiver is a struct, the dispatch is dynamic all
// the same.
type Stage struct {
	Closer
	Name string
}

// ApplyStage runs the stage's closer through the promoted method.
func ApplyStage(s Stage, done chan struct{}) { s.Shut(done) }

// BadEmbedded reaches closer.Shut through the promoted method.
func BadEmbedded(k *sim.Kernel, s Stage, done chan struct{}) {
	k.Go(7, func() { ApplyStage(s, done) })
}

// Ping and Pong recurse into each other: the walk from an actor body has to
// terminate on the cycle, and report what is on it once.
func Ping(ch chan int, n int) {
	if n > 0 {
		Pong(ch, n-1)
	}
}

// Pong is the half of the cycle that breaks the protocol.
func Pong(ch chan int, n int) {
	if n == 0 {
		ch <- n // want `actor body armed in BadCycle: sends on a channel outside the kernel baton \(BadCycle → kp\.Ping → kp\.Pong\)`
		return
	}
	Ping(ch, n-1)
}

// BadCycle reaches the send through the mutual recursion.
func BadCycle(k *sim.Kernel, ch chan int) {
	k.Go(8, func() { Ping(ch, 3) })
}
