package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/runner"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

// FaultPoint is one fault rate of the robustness sweep: several independent
// trials of the same workload under injected device errors, latency spikes
// and fragment corruption.
type FaultPoint struct {
	Rate     float64 // per-opportunity probability for every fault class
	Trials   int
	Survived int           // trials that completed despite the faults
	MeanTime time.Duration // mean elapsed virtual time among survivors
	Overhead float64       // survivor mean / fault-free mean (1.0 at rate 0)
	Faults   stats.Faults  // fault activity summed over all trials (died trials included)
}

// SurvivalPct reports the fraction of trials that completed, in percent.
func (p FaultPoint) SurvivalPct() float64 {
	if p.Trials == 0 {
		return 0
	}
	return 100 * float64(p.Survived) / float64(p.Trials)
}

// FaultsResult is the full sweep.
type FaultsResult struct {
	MemoryMB int
	BaseTime time.Duration // fault-free mean elapsed time (the rate-0 row)
	Points   []FaultPoint
}

// faultSize sizes the fault sweep at one scale.
type faultSize struct {
	memoryMB int   // user-available memory for the thrashing workload
	pages    int32 // the workload's working set
	trials   int   // independent trials per rate; only the injector seed varies
}

// faultSizes is the fault sweep's sizing, by scale.
var faultSizes = [...]faultSize{
	Small: {memoryMB: 1, pages: 640, trials: 4},
	Paper: {memoryMB: 6, pages: 4096, trials: 8},
}

// faultTrial is one trial's outcome. Dying to injected faults is an expected
// result at high rates, so it is data, not an error: returning it as a value
// keeps runner.Map dispatching the remaining trials. Died trials still carry
// their stats (the faults injected up to the point of death).
type faultTrial struct {
	run  stats.Run
	died bool
}

// measureTrial is workload.Measure with one difference: an unrecoverable
// paging failure returns the machine's stats as of the death instead of
// discarding them, so the sweep can report fault activity for died trials.
func measureTrial(cfg machine.Config, w workload.Workload) (faultTrial, error) {
	m, st, err := workload.MeasureMachine(cfg, w)
	if m != nil && fault.IsUnrecoverable(err) {
		return faultTrial{run: m.Stats(), died: true}, nil
	}
	return faultTrial{run: st}, err
}

// faultSweep measures overhead and survival versus fault rate: the same
// thrashing workload runs several trials per rate on a compression-cache
// machine whose injector fails device transfers, stalls the device and flips
// bits in compressed fragments. A trial survives when every lost fragment
// could be re-fetched from a lower level; it dies (typed, never a panic)
// when the only copy of a page is gone. Only injector seeds vary between
// trials, so the sweep is deterministic at any parallelism.
//
// The rates are a ladder from 0 to 1e-2. A rate is applied uniformly to
// device read errors, device write errors and both corruption classes;
// latency spikes — transient by nature, so far more common than hard faults
// in practice — fire at 50x the rate (capped at 1) to make their overhead
// visible at rates where the machine still survives.
func faultSweep(ctx context.Context, o Options) (Result, error) {
	rates := []float64{0, 1e-4, 1e-3, 1e-2}
	sz := faultSizes[o.Scale]
	const seed = 1
	memBytes := int64(sz.memoryMB) << 20
	type spec struct {
		rate float64
		seed int64
	}
	specs := make([]spec, 0, len(rates)*sz.trials)
	for ri, rate := range rates {
		for tr := 0; tr < sz.trials; tr++ {
			specs = append(specs, spec{rate, seed + int64(ri)*1_000_003 + int64(tr)})
		}
	}
	trials, err := runner.Map(ctx, o.Parallelism, len(specs),
		func(_ context.Context, i int) (faultTrial, error) {
			s := specs[i]
			cfg := machine.Default(memBytes).WithCC()
			if s.rate > 0 {
				cfg = cfg.WithFaults(fault.Config{
					Seed:                s.seed,
					ReadErrorRate:       s.rate,
					WriteErrorRate:      s.rate,
					CacheCorruptionRate: s.rate,
					SwapCorruptionRate:  s.rate,
					LatencySpikeRate:    math.Min(1, 50*s.rate),
					LatencySpike:        2 * time.Millisecond,
				})
			}
			trial, err := measureTrial(cfg, &workload.Thrasher{Pages: sz.pages, Write: true, Passes: 1, Seed: seed})
			if err != nil {
				return faultTrial{}, fmt.Errorf("faults rate=%g trial seed=%d: %w", s.rate, s.seed, err)
			}
			return trial, nil
		})
	if err != nil {
		return nil, err
	}

	res := &FaultsResult{MemoryMB: sz.memoryMB}
	for ri, rate := range rates {
		pt := FaultPoint{Rate: rate, Trials: sz.trials}
		var total time.Duration
		for tr := 0; tr < sz.trials; tr++ {
			t := trials[ri*sz.trials+tr]
			// Fault activity counts for every trial — a died trial's
			// injections up to the death are part of the picture.
			f := t.run.Faults
			pt.Faults.InjectedReadErrors += f.InjectedReadErrors
			pt.Faults.InjectedWriteErrors += f.InjectedWriteErrors
			pt.Faults.InjectedCorruptions += f.InjectedCorruptions
			pt.Faults.InjectedSpikes += f.InjectedSpikes
			pt.Faults.CorruptionsDetected += f.CorruptionsDetected
			pt.Faults.Recoveries += f.Recoveries
			if t.died {
				continue
			}
			pt.Survived++
			total += t.run.Time
		}
		if pt.Survived > 0 {
			pt.MeanTime = total / time.Duration(pt.Survived)
		}
		if rate == 0 {
			res.BaseTime = pt.MeanTime
		}
		res.Points = append(res.Points, pt)
	}
	for i := range res.Points {
		if res.BaseTime > 0 && res.Points[i].MeanTime > 0 {
			res.Points[i].Overhead = float64(res.Points[i].MeanTime) / float64(res.BaseTime)
		}
	}
	return res, nil
}

// Tables implements Result.
func (r *FaultsResult) Tables() []*Table { return []*Table{r.Table()} }

// Table renders the sweep: survival and overhead versus fault rate.
func (r *FaultsResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fault injection: overhead and survival vs fault rate (user memory %d MB)", r.MemoryMB),
		Header: []string{"rate", "trials", "survived", "survival%", "mean_time", "overhead", "inj_err", "inj_spike", "inj_corrupt", "detected", "recovered"},
		Note: "rate applies per device op and per fragment; overhead is survivor mean time over the fault-free mean.\n" +
			"detected = checksum/codec verification failures, recovered = corrupt fragments re-fetched from a clean copy.",
	}
	for _, p := range r.Points {
		mean := "-"
		if p.Survived > 0 {
			mean = fmt.Sprint(p.MeanTime.Round(time.Millisecond))
		}
		overhead := "-"
		if p.Overhead > 0 {
			overhead = fmt.Sprintf("%.2f", p.Overhead)
		}
		t.AddRow(fmt.Sprintf("%g", p.Rate),
			fmt.Sprint(p.Trials),
			fmt.Sprint(p.Survived),
			fmt.Sprintf("%.0f", p.SurvivalPct()),
			mean,
			overhead,
			fmt.Sprint(p.Faults.InjectedReadErrors+p.Faults.InjectedWriteErrors),
			fmt.Sprint(p.Faults.InjectedSpikes),
			fmt.Sprint(p.Faults.InjectedCorruptions),
			fmt.Sprint(p.Faults.CorruptionsDetected),
			fmt.Sprint(p.Faults.Recoveries))
	}
	return t
}
