package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMapZeroWorkersRunsConcurrently: a worker count of zero or less is one
// worker per GOMAXPROCS, so with two or more procs the two calls of a
// two-index Map are in flight at once. Each call waits, for a bounded time,
// for the other to start; a serial Map runs the first alone and fails it.
func TestMapZeroWorkersRunsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, workers := range []int{0, -1} {
		var started sync.WaitGroup
		started.Add(2)
		both := make(chan struct{})
		go func() {
			started.Wait()
			close(both)
		}()
		_, err := Map(context.Background(), workers, 2, func(_ context.Context, i int) (int, error) {
			started.Done()
			select {
			case <-both:
				return i, nil
			case <-time.After(5 * time.Second):
				return 0, fmt.Errorf("call %d ran alone", i)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d with GOMAXPROCS %d: %v", workers, runtime.GOMAXPROCS(0), err)
		}
	}
}

func TestMapSlotsResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 100} {
		got, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapAggregatesErrorsKeepingPartialResults(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		got, err := Map(context.Background(), workers, 10, func(_ context.Context, i int) (string, error) {
			if i == 5 {
				return "", sentinel
			}
			return fmt.Sprint(i), nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap sentinel", workers, err)
		}
		if !strings.Contains(err.Error(), "run 5") {
			t.Fatalf("workers=%d: error %q not annotated with index", workers, err)
		}
		if len(got) != 10 {
			t.Fatalf("workers=%d: %d slots, want 10", workers, len(got))
		}
		// Results completed before the failure are retained; index 5 holds
		// the zero value.
		if got[5] != "" {
			t.Fatalf("workers=%d: failed slot holds %q", workers, got[5])
		}
		if got[0] != "0" {
			t.Fatalf("workers=%d: lost completed result: %q", workers, got[0])
		}
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	// Serial mode must not call fn for indexes after the failing one.
	calls := 0
	_, err := Map(context.Background(), 1, 10, func(_ context.Context, i int) (int, error) {
		calls++
		if i == 2 {
			return 0, errors.New("stop here")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if calls != 3 {
		t.Fatalf("fn called %d times after early error, want 3", calls)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, workers, 8, func(ctx context.Context, i int) (int, error) {
			return i, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapRunsConcurrently(t *testing.T) {
	// A barrier only releases once all four indexes are in flight at once;
	// a serial implementation would deadlock here (and fail via the test
	// timeout).
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	got, err := Map(context.Background(), n, n, func(_ context.Context, i int) (int, error) {
		barrier.Done()
		barrier.Wait()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

// Every call sees its index as the profiler label "job", beside the labels
// of the context Map was given, on the serial and the parallel path alike.
func TestMapLabelsEachJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var (
			got []string
			err error
		)
		pprof.Do(context.Background(), pprof.Labels("experiment", "sweep"), func(ctx context.Context) {
			got, err = Map(ctx, workers, 8, func(ctx context.Context, i int) (string, error) {
				job, _ := pprof.Label(ctx, "job")
				outer, _ := pprof.Label(ctx, "experiment")
				return outer + "/" + job, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if want := fmt.Sprintf("sweep/%d", i); g != want {
				t.Fatalf("workers=%d: job %d saw labels %q, want %q", workers, i, g, want)
			}
		}
	}
}
