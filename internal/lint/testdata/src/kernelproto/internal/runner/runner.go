// Package runner is a minimal stand-in for the host fan-out, matched by
// kernelproto's internal/runner suffix rule: it builds whole machines on
// worker goroutines above every kernel, and is exempt by package.
package runner

import (
	"sync"
	"sync/atomic"
)

// Map runs fn(0..n-1) on up to workers goroutines.
func Map(workers, n int, fn func(i int)) {
	var wg sync.WaitGroup
	var rw sync.RWMutex
	var next atomic.Int64
	idle := sync.NewCond(&rw)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				rw.RLock()
				fn(i)
				rw.RUnlock()
			}
			idle.Broadcast()
		}()
	}
	wg.Wait()
}
