// Package runner fans independent experiment runs out across worker
// goroutines while keeping the results deterministic.
//
// Every experiment in this reproduction builds a fresh simulated machine
// with its own virtual clock, so runs are independent by construction and
// their results depend only on their inputs, never on host scheduling. The
// runner exploits that: it dispatches indexes to a small worker pool and
// slots each result by index, so a parallel sweep produces byte-identical
// output to a serial one. Callers are responsible for giving each call its
// own mutable state (workload.Clone exists for exactly this).
//
// A worker count of zero or less means one worker per GOMAXPROCS, so every
// caller passes its parallelism knob straight through and "0 = every core"
// holds wherever a sweep fans out.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(ctx, i) for every index in [0, n) using at most workers
// concurrent goroutines and returns the results slotted by index, so the
// output order never depends on scheduling. Each call must be independent:
// it receives only its index and must not share mutable state with other
// calls.
//
// Errors are aggregated with errors.Join, each annotated with its index;
// partial results are kept (the returned slice always has n slots, holding
// the zero value at failed or skipped indexes). After the first failure or
// a context cancellation no new indexes are dispatched, but in-flight calls
// run to completion. workers <= 0 means runtime.GOMAXPROCS(0) workers; one
// worker runs every index serially on the calling goroutine.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("run %d: %w", i, err)
				break
			}
			r, err := fn(ctx, i)
			if err != nil {
				errs[i] = fmt.Errorf("run %d: %w", i, err)
				break
			}
			results[i] = r
		}
		return results, errors.Join(errs...)
	}

	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("run %d: %w", i, err)
					failed.Store(true)
					return
				}
				r, err := fn(ctx, i)
				if err != nil {
					errs[i] = fmt.Errorf("run %d: %w", i, err)
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}
