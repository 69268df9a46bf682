package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"compcache/internal/cluster"
	"compcache/internal/exp"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

// A leg is one machine run or one fleet cell: the unit that can fail and the
// unit the oracle digests. run builds everything it needs from scratch, so a
// leg repeats exactly and legs never share simulator state.
type leg struct {
	name string
	run  func(tr *tracer, id int32) (legOut, error)
}

// legOut is everything a leg's simulation produced, in a shape whose JSON
// form is canonical (struct fields in declaration order, map keys sorted):
// the digest is the SHA-256 of that form.
type legOut struct {
	Machines []stats.Run          // one per machine, in actor order
	Server   *cluster.ServerStats `json:",omitempty"`
	FleetNow int64                `json:",omitempty"` // kernel time at the end of a fleet cell
}

func (o legOut) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		// Invariant: legOut holds only numbers, strings and slices of them.
		panic(fmt.Sprintf("bench: digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// machineLeg runs one workload on one free-running machine, the way
// workload.MeasureMachine does, with the traced pass's hooks spliced in.
func machineLeg(name string, cfg machine.Config, w func() workload.Workload) leg {
	return leg{name: name, run: func(tr *tracer, id int32) (legOut, error) {
		root := tr.open(spanLeg, id, -1)
		defer tr.close(root)
		cfg := cfg
		if cfg.CC.Enabled {
			cfg.CC.Codec = tr.codecName(cfg.CC.Codec)
		}
		sp := tr.open(spanMachineNew, id, root)
		m, err := machine.New(cfg)
		tr.close(sp)
		if err != nil {
			return legOut{}, err
		}
		defer tr.attach(m, id, root)()
		if err := w().Run(m); err != nil {
			return legOut{}, err
		}
		if err := m.Err(); err != nil {
			return legOut{}, err
		}
		sp = tr.open(spanMachineCheck, id, root)
		err = m.CheckInvariants()
		st := m.Stats()
		tr.close(sp)
		if err != nil {
			return legOut{}, err
		}
		return legOut{Machines: []stats.Run{st}}, nil
	}}
}

// fleetLeg runs one fleet cell the way exp's fleet sweep does — populate a
// tagged working set on every member, cycle the kernel through a snapshot,
// then verify the tags in a shuffled order — through the cluster package's
// public surface only.
func fleetLeg(name string, machines int, link netdev.Params, codec string, memBytes int64, pages int32, passes int, seed int64) leg {
	return leg{name: name, run: func(tr *tracer, id int32) (legOut, error) {
		root := tr.open(spanLeg, id, -1)
		defer tr.close(root)
		donation := 0
		if machines > 1 {
			donation = 16
		}
		sp := tr.open(spanMachineNew, id, root)
		c, err := cluster.New(cluster.Config{
			Machines: machines, MemoryBytes: memBytes, Link: link,
			Codec: tr.codecName(codec), Seed: seed, DonationFrames: donation,
			Obs: &obs.Options{},
		})
		tr.close(sp)
		if err != nil {
			return legOut{}, err
		}
		for i := 0; i < c.Size(); i++ {
			defer tr.attach(c.Machine(i), id, root)()
		}
		spaces := make([]*machine.Space, c.Size())
		rngs := make([]*rand.Rand, c.Size())
		errs := make([]error, c.Size())
		for i := 0; i < c.Size(); i++ {
			i := i
			c.Go(i, func(m *machine.Machine) {
				spaces[i], rngs[i] = fleetPopulate(m, pages, c.SeedFor(i))
				errs[i] = m.Err()
			})
		}
		c.Run()
		if err := firstErr(errs); err != nil {
			return legOut{}, err
		}
		if err := c.SnapshotCycle(); err != nil {
			return legOut{}, err
		}
		for i := 0; i < c.Size(); i++ {
			i := i
			c.Go(i, func(m *machine.Machine) {
				errs[i] = fleetVerify(spaces[i], pages, int64(m.Config().PageSize), passes, rngs[i])
				if errs[i] == nil {
					errs[i] = m.Err()
				}
			})
		}
		c.Run()
		if err := firstErr(errs); err != nil {
			return legOut{}, err
		}
		if err := c.Err(); err != nil {
			return legOut{}, err
		}
		sp = tr.open(spanMachineCheck, id, root)
		err = c.CheckInvariants()
		out := legOut{FleetNow: int64(c.Kernel.Now())}
		for i := 0; i < c.Size(); i++ {
			out.Machines = append(out.Machines, c.Machine(i).Stats())
		}
		srv := c.Server().Stats()
		out.Server = &srv
		tr.close(sp)
		return out, err
	}}
}

// fleetPopulate writes a tagged working set: every page is half random
// 64-byte blocks (so codecs differ without pages compressing to nothing)
// with a tag in word 0 that fleetVerify checks after the page has travelled
// through fleet memory or the server tier.
func fleetPopulate(m *machine.Machine, pages int32, seed int64) (*machine.Space, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	ps := int64(m.Config().PageSize)
	s := m.NewSegment("fleet", int64(pages)*ps)
	buf := make([]byte, ps)
	for p := int32(0); p < pages; p++ {
		clear(buf)
		for blk := 0; blk+64 <= len(buf); blk += 64 {
			if rng.Intn(2) == 0 {
				rng.Read(buf[blk : blk+64])
			}
		}
		s.Write(int64(p)*ps, buf)
		s.WriteWord(int64(p)*ps, fleetTag(p))
	}
	return s, rng
}

// fleetVerify checks every tag, passes times, in a seed-shuffled order. Zero
// is what ReadWord returns once the machine has died; the caller reports
// that through Machine.Err.
func fleetVerify(s *machine.Space, pages int32, ps int64, passes int, rng *rand.Rand) error {
	for pass := 0; pass < passes; pass++ {
		for _, p := range rng.Perm(int(pages)) {
			got := s.ReadWord(int64(p) * ps)
			if got != fleetTag(int32(p)) && got != 0 {
				return fmt.Errorf("fleet page %d: tag %#x, want %#x", p, got, fleetTag(int32(p)))
			}
		}
	}
	return nil
}

func fleetTag(p int32) uint64 { return 0xf1ee7<<40 ^ uint64(p)*0x9e3779b9 }

func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("machine %d: %w", i, err)
		}
	}
	return nil
}

// repResult is one pass over a workload's legs.
type repResult struct {
	wall     float64 // host seconds, summed over the legs
	cal      float64 // median time of the calibration kernel run between the legs
	allocMB  float64 // runtime.MemStats.TotalAlloc delta
	mallocsK float64 // runtime.MemStats.Mallocs delta, thousands
	outs     []legOut
	digests  []string  // per leg; "error: ..." for a leg that failed
	legWall  []float64 // host seconds per leg
	failed   int
}

// speed is how fast the box ran during the rep, 1 being the reference box at
// full speed; refWall is the rep's host time at that reference speed. See
// calibrate.go.
func (r repResult) speed() float64   { return calReference / r.cal }
func (r repResult) refWall() float64 { return r.wall * r.speed() }

// runRep runs the legs serially on the calling goroutine. The collection
// before the first timestamp gives every rep the same starting heap; the
// MemStats reads (which stop the world) and the digests sit outside the
// timed interval.
func runRep(legs []leg, tr *tracer) repResult {
	res := repResult{
		outs:    make([]legOut, len(legs)),
		digests: make([]string, len(legs)),
		legWall: make([]float64, len(legs)),
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cal := []float64{calibrate()}
	for i, l := range legs {
		lt := hostNow()
		out, err := l.run(tr, int32(i))
		res.legWall[i] = secondsSince(lt)
		res.wall += res.legWall[i]
		cal = append(cal, calibrate())
		if err != nil {
			res.failed++
			res.digests[i] = "error: " + err.Error()
			continue
		}
		res.outs[i] = out
	}
	res.cal = median(cal)
	runtime.ReadMemStats(&after)
	res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.mallocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	for i, out := range res.outs {
		if res.digests[i] == "" {
			res.digests[i] = out.digest()
		}
	}
	return res
}

// totals sums the exact simulated counters over every machine of every leg.
type totals struct {
	run       stats.Run // VM, Comp, Disk, CC, Swap and Time summed
	server    cluster.ServerStats
	faultHist [32]uint64 // vm.fault_service buckets, obs.DefaultBuckets order + overflow
	faultObs  uint64
}

func sumLegs(outs []legOut) totals {
	var t totals
	for _, o := range outs {
		for _, r := range o.Machines {
			addRun(&t.run, r)
			if h, ok := r.Metrics.Hist("vm.fault_service"); ok {
				t.faultObs += h.Count
				for _, b := range h.Buckets {
					t.faultHist[bucketIndex(b.Le)] += b.Count
				}
			}
		}
		if o.Server != nil {
			t.server.Ops += o.Server.Ops
			t.server.Forwards += o.Server.Forwards
			t.server.TierHits += o.Server.TierHits
			t.server.TierMiss += o.Server.TierMiss
			t.server.Demotions += o.Server.Demotions
		}
	}
	return t
}

func addRun(dst *stats.Run, r stats.Run) {
	dst.Time += r.Time
	dst.VM.Refs += r.VM.Refs
	dst.VM.Faults += r.VM.Faults
	dst.VM.ColdFaults += r.VM.ColdFaults
	dst.VM.CacheHits += r.VM.CacheHits
	dst.VM.SwapIns += r.VM.SwapIns
	dst.VM.RemoteIns += r.VM.RemoteIns
	dst.VM.Evictions += r.VM.Evictions
	dst.VM.WriteBacks += r.VM.WriteBacks
	dst.Comp.Compressions += r.Comp.Compressions
	dst.Comp.Decompressions += r.Comp.Decompressions
	dst.Comp.Incompressible += r.Comp.Incompressible
	dst.Comp.CompressibleIn += r.Comp.CompressibleIn
	dst.Comp.CompressibleOut += r.Comp.CompressibleOut
	dst.CC.Inserts += r.CC.Inserts
	dst.CC.Hits += r.CC.Hits
	dst.CC.Misses += r.CC.Misses
	dst.CC.CleanWrites += r.CC.CleanWrites
	dst.CC.FrameGrows += r.CC.FrameGrows
	dst.CC.FrameShrinks += r.CC.FrameShrinks
	dst.CC.Dropped += r.CC.Dropped
	dst.CC.MidReclaims += r.CC.MidReclaims
	dst.Swap.PagesOut += r.Swap.PagesOut
	dst.Swap.PagesIn += r.Swap.PagesIn
	dst.Swap.GCs += r.Swap.GCs
	dst.Swap.GCBytesCopied += r.Swap.GCBytesCopied
	dst.Disk.Reads += r.Disk.Reads
	dst.Disk.Writes += r.Disk.Writes
	dst.Disk.BytesRead += r.Disk.BytesRead
	dst.Disk.BytesWritten += r.Disk.BytesWritten
	dst.Disk.Seeks += r.Disk.Seeks
	dst.Disk.BusyTime += r.Disk.BusyTime
	dst.Disk.Retries += r.Disk.Retries
}

// bucketIndex maps a histogram bucket's upper bound to its slot; the
// overflow bucket (Le < 0) takes the slot after the last bound.
func bucketIndex(le time.Duration) int {
	if le < 0 {
		return len(obs.DefaultBuckets)
	}
	for i, b := range obs.DefaultBuckets {
		if b == le {
			return i
		}
	}
	// Invariant: every histogram uses obs.DefaultBuckets.
	panic(fmt.Sprintf("bench: histogram bound %v is not in obs.DefaultBuckets", le))
}

// faultQuantileUs reports the upper bound, in microseconds, of the bucket
// holding the q-th fault-service observation; 0 when no machine carried a
// bus, and twice the last bound when the quantile overflowed the ladder.
func (t totals) faultQuantileUs(q float64) float64 {
	if t.faultObs == 0 {
		return 0
	}
	need := max(uint64(q*float64(t.faultObs)), 1)
	var cum uint64
	for i, n := range t.faultHist[:len(obs.DefaultBuckets)] {
		if cum += n; cum >= need {
			return float64(obs.DefaultBuckets[i]) / float64(time.Microsecond)
		}
	}
	last := obs.DefaultBuckets[len(obs.DefaultBuckets)-1]
	return 2 * float64(last) / float64(time.Microsecond)
}

// exactCounts fills the per-layer rows that come straight from the
// simulation's own counters.
func exactCounts(m metrics, def workloadDef, legs []leg, outs []legOut) {
	t := sumLegs(outs)
	r := t.run
	m["sim.virtual_s"] = r.Time.Seconds()
	m["vm.refs"] = float64(r.VM.Refs)
	m["vm.faults"] = float64(r.VM.Faults)
	m["vm.cold_faults"] = float64(r.VM.ColdFaults)
	m["vm.cc_hits"] = float64(r.VM.CacheHits)
	m["vm.swap_ins"] = float64(r.VM.SwapIns)
	m["vm.remote_ins"] = float64(r.VM.RemoteIns)
	m["vm.evictions"] = float64(r.VM.Evictions)
	m["vm.writebacks"] = float64(r.VM.WriteBacks)
	m["compress.compressions"] = float64(r.Comp.Compressions)
	m["compress.decompressions"] = float64(r.Comp.Decompressions)
	m["compress.ratio"] = r.Comp.Ratio()
	m["compress.incompressible_frac"] = r.Comp.UncompressibleFrac()
	m["core.inserts"] = float64(r.CC.Inserts)
	m["core.hits"] = float64(r.CC.Hits)
	m["core.misses"] = float64(r.CC.Misses)
	m["core.hit_rate"] = r.CC.HitRate()
	m["core.clean_writes"] = float64(r.CC.CleanWrites)
	m["core.frame_grows"] = float64(r.CC.FrameGrows)
	m["core.frame_shrinks"] = float64(r.CC.FrameShrinks)
	m["core.dropped"] = float64(r.CC.Dropped)
	m["core.mid_reclaims"] = float64(r.CC.MidReclaims)
	m["swap.pages_out"] = float64(r.Swap.PagesOut)
	m["swap.pages_in"] = float64(r.Swap.PagesIn)
	m["swap.gcs"] = float64(r.Swap.GCs)
	m["swap.gc_bytes_copied"] = float64(r.Swap.GCBytesCopied)
	m["disk.reads"] = float64(r.Disk.Reads)
	m["disk.writes"] = float64(r.Disk.Writes)
	m["disk.bytes_read"] = float64(r.Disk.BytesRead)
	m["disk.bytes_written"] = float64(r.Disk.BytesWritten)
	m["disk.seeks"] = float64(r.Disk.Seeks)
	m["disk.busy_sim_s"] = r.Disk.BusyTime.Seconds()
	m["netdev.retries"] = float64(r.Disk.Retries)
	m["cluster.server_ops"] = float64(t.server.Ops)
	m["cluster.forwards"] = float64(t.server.Forwards)
	m["cluster.tier_hits"] = float64(t.server.TierHits)
	m["cluster.tier_misses"] = float64(t.server.TierMiss)
	m["cluster.demotions"] = float64(t.server.Demotions)
	m["obs.fault_service_p50_us"] = t.faultQuantileUs(0.50)
	m["obs.fault_service_p99_us"] = t.faultQuantileUs(0.99)
	m["obs.fault_service_p999_us"] = t.faultQuantileUs(0.999)
	m["machine.speedup_geo"], m["machine.paper_err_pct"] = 0, 0
	if def.table1 {
		m["machine.speedup_geo"], m["machine.paper_err_pct"] = paperAccuracy(legs, outs)
	}
}

// paperAccuracy compares std/cc leg pairs against the paper's Table 1: the
// geometric mean of the measured speedups and the mean relative error
// against the published ones, in percent. There is no other reference data,
// so every workload but apps is unvalidated and reports 0 for both.
func paperAccuracy(legs []leg, outs []legOut) (geo, errPct float64) {
	std := make(map[string]time.Duration)
	for i, l := range legs {
		if app, ok := strings.CutSuffix(l.name, "/std"); ok && len(outs[i].Machines) == 1 {
			std[app] = outs[i].Machines[0].Time
		}
	}
	var logSum, errSum float64
	n := 0
	for i, l := range legs {
		app, ok := strings.CutSuffix(l.name, "/cc")
		row, isRow := exp.PaperTable1(app)
		if !ok || !isRow || std[app] == 0 || len(outs[i].Machines) != 1 || outs[i].Machines[0].Time == 0 {
			continue
		}
		speedup := float64(std[app]) / float64(outs[i].Machines[0].Time)
		logSum += math.Log(speedup)
		errSum += math.Abs(speedup-row.Speedup) / row.Speedup
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(n)), 100 * errSum / float64(n)
}
