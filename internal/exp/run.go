package exp

import (
	"context"

	"compcache/internal/machine"
	"compcache/internal/runner"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

// job is one (machine configuration, workload) measurement in a sweep.
type job struct {
	cfg machine.Config
	w   workload.Workload
}

// measureAll measures every job with up to workers concurrent machines
// (workers <= 0 means one per core, 1 forces serial) and returns the stats
// slotted by job index. Each run gets a fresh machine built with opts (the
// sweep's shared attachments, observability usually) and its own clone of
// the workload, so runs never share mutable state; because every machine is
// deterministic in virtual time, the results are byte-identical to a serial
// sweep regardless of workers.
func measureAll(ctx context.Context, workers int, jobs []job, opts ...machine.Option) ([]stats.Run, error) {
	return runner.Map(ctx, workers, len(jobs),
		func(_ context.Context, i int) (stats.Run, error) {
			return workload.Measure(jobs[i].cfg, workload.Clone(jobs[i].w), opts...)
		})
}
