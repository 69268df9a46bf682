// Package kp is a golden fixture for the kernelproto analyzer: outside
// internal/runner every scheduler-visible primitive is a
// finding where it stands — called or not, in a declared function, a stored
// closure or a package-level initialiser — and the clean cases show what
// simulator code may still do.
package kp

import (
	"sync"
	"sync/atomic"

	"compcache/kernelproto/internal/runner"
	"compcache/kernelproto/internal/sim"
)

// Channels holds one finding per channel primitive.
func Channels(ch chan int, done chan struct{}) int {
	go drain(ch) // want `spawns a raw goroutine outside internal/runner`
	ch <- 1      // want `sends on a channel outside internal/runner`
	v := <-ch    // want `receives from a channel outside internal/runner`
	select {     // want `selects on channels outside internal/runner`
	default:
	}
	close(done) // want `closes a channel outside internal/runner`
	return v
}

// drain is called by nothing the analyzer needs to know about: the range is
// a finding because of the file it is in.
func drain(ch chan int) {
	for range ch { // want `ranges over a channel outside internal/runner`
	}
}

// state holds one of each forbidden sync type.
type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	wg   sync.WaitGroup
	once sync.Once
	n    atomic.Int64
}

// guarded embeds its lock, so Lock is a promoted method selected on a type of
// this package.
type guarded struct{ sync.Mutex }

var ticks int64

// regMu is named like the codec registry's lock, but the table of real
// locks names that lock in its own package only.
var regMu sync.Mutex

// Locks holds one finding per sync and sync/atomic primitive.
func Locks(s *state) {
	s.mu.Lock()                // want `takes sync\.Mutex\.Lock outside internal/runner`
	defer s.mu.Unlock()        // want `takes sync\.Mutex\.Unlock outside internal/runner`
	s.rw.RLock()               // want `takes sync\.RWMutex\.RLock outside internal/runner`
	s.wg.Wait()                // want `takes sync\.WaitGroup\.Wait outside internal/runner`
	sync.NewCond(&s.mu).Wait() // want `takes sync\.Cond\.Wait outside internal/runner`
	s.once.Do(func() {})       // want `takes sync\.Once\.Do outside internal/runner`
	atomic.AddInt64(&ticks, 1) // want `performs atomic AddInt64 outside internal/runner`
	s.n.Add(1)                 // want `performs atomic Int64\.Add outside internal/runner`
	new(guarded).Lock()        // want `takes sync\.Mutex\.Lock outside internal/runner`
	regMu.Lock()               // want `takes sync\.Mutex\.Lock outside internal/runner`
}

// Cache is the hook shape: the flush closure is stored at construction and
// only ever invoked through the func value, which no static call graph
// follows.
type Cache struct{ flush func(n int) }

// SetHooks stores the closure.
func (c *Cache) SetHooks(flush func(n int)) { c.flush = flush }

// Evict runs the stored hook through the func value.
func (c *Cache) Evict(n int) { c.flush(n) }

// Build wires the hook the way a machine builder does; the goroutine inside
// the closure runs on every eviction.
func Build(c *Cache) {
	c.SetHooks(func(n int) {
		go func() {}() // want `spawns a raw goroutine outside internal/runner`
	})
}

// Run evicts from inside an actor body, so the hook's goroutine runs while an
// actor holds the baton — by a route with a func-value call in the middle.
func Run(k *sim.Kernel, c *Cache) {
	k.Go(6, func() { c.Evict(1) })
}

// onExit is a construction-time closure: it runs from a package-level
// initialiser, inside no declared function at all.
var onExit = func(done chan struct{}) {
	close(done) // want `closes a channel outside internal/runner`
}

// Good stays on the baton: kernel waits, the runner's fan-out, and pooled
// scratch (sync.Pool never blocks) are what simulator code uses instead.
func Good(k *sim.Kernel, pool *sync.Pool) {
	k.Go(5, func() {
		buf := pool.Get().([]byte)
		k.Wait(5, 100)
		pool.Put(buf[:0])
	})
	runner.Map(2, 4, func(i int) { k.Wait(sim.ActorID(i), 1) })
}
