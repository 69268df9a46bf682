package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"compcache/internal/cluster"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/runner"
)

// fleetSweep scales the paper's diskless scenario out to a fleet: N machines
// paging over one link to a shared page server, co-advancing on one
// discrete-event kernel. The grid crosses fleet size with link parameters
// and codec; each cell reports aggregate tail latency (p50/p99/p999 of
// vm.fault_service across every member), so the table shows how server
// contention stretches the tail as the fleet grows.
//
// Every cell runs in two phases — populate, then a shuffled verify sweep —
// with a kernel snapshot/restore cycle at the phase boundary, so the sweep
// continuously proves the cycle is a semantic no-op. Cells are independent
// fleets fanned out across Options.Parallelism workers; rows assemble in
// grid order, so the table is byte-identical at any parallelism.
//
// Options.TracePath, when non-empty, additionally writes one JSON record per
// cell (grid order) — the machine-readable artifact CI archives.
func fleetSweep(ctx context.Context, o Options) (Result, error) {
	memoryMB, pages := o.sizing()
	t := &Table{
		Title:  "Extension: fleet tail latency vs fleet size (shared page server, discrete-event kernel)",
		Header: []string{"fleet", "link", "codec", "faults", "remote-ins", "srv ops", "p50", "p99", "p999"},
		Note: "Percentiles are upper bucket bounds of the aggregate vm.fault_service histogram across all\n" +
			"members. The whole fleet queues on one server timeline, so the tail stretches with fleet size;\n" +
			"donated sibling memory absorbs part of the spill that would otherwise hit the server tier.",
	}
	type cell struct {
		machines int
		linkName string
		link     netdev.Params
		codec    string
	}
	var cells []cell
	for _, n := range []int{1, 2, 4} {
		for _, l := range []struct {
			name string
			p    netdev.Params
		}{{"eth10", netdev.Ethernet10()}, {"wireless2", netdev.Wireless2()}} {
			for _, codec := range []string{"lzrw1", "fpc"} {
				cells = append(cells, cell{machines: n, linkName: l.name, link: l.p, codec: codec})
			}
		}
	}
	// Every member thrashes: the per-machine working set is ~3x physical
	// memory (half-random pages compress ~2:1, so it does not fit even
	// compressed and evictions must leave the machine).
	perMachine := int32(3 * (int64(memoryMB) << 20) / 4096)
	if perMachine > pages {
		perMachine = pages
	}
	type cellOut struct {
		row []string
		rec fleetRec
	}
	results, err := runner.Map(ctx, o.Parallelism, len(cells), func(_ context.Context, i int) (cellOut, error) {
		ce := cells[i]
		c, err := runFleetCell(ce.machines, int64(memoryMB)<<20, ce.link, ce.codec, o.seed(1), perMachine)
		if err != nil {
			return cellOut{}, fmt.Errorf("fleet cell %d/%s/%s: %w", ce.machines, ce.linkName, ce.codec, err)
		}
		var agg histAgg
		var faults, remoteIns uint64
		for m := 0; m < c.Size(); m++ {
			st := c.Machine(m).Stats()
			faults += st.VM.Faults
			remoteIns += st.VM.RemoteIns
			if h, ok := c.Machine(m).Metrics().Hist("vm.fault_service"); ok {
				agg.add(h)
			}
		}
		srv := c.Server().Stats()
		p50, p99, p999 := agg.quantile(0.50), agg.quantile(0.99), agg.quantile(0.999)
		out := cellOut{
			row: []string{
				fmt.Sprintf("%d", ce.machines), ce.linkName, ce.codec,
				fmt.Sprintf("%d", faults), fmt.Sprintf("%d", remoteIns), fmt.Sprintf("%d", srv.Ops),
				fmtQuantile(p50), fmtQuantile(p99), fmtQuantile(p999),
			},
			rec: fleetRec{
				Fleet: ce.machines, Link: ce.linkName, Codec: ce.codec,
				Faults: faults, RemoteIns: remoteIns,
				ServerOps: srv.Ops, Forwards: srv.Forwards, TierHits: srv.TierHits, TierMiss: srv.TierMiss,
				P50us: usOrNeg(p50), P99us: usOrNeg(p99), P999us: usOrNeg(p999),
				FleetTimeUs: int64(time.Duration(c.Kernel.Now()) / time.Microsecond),
			},
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	recs := make([]fleetRec, len(results))
	for i, r := range results {
		t.AddRow(r.row...)
		recs[i] = r.rec
	}
	if o.TracePath != "" {
		if err := writeFleetTrace(o.TracePath, recs); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runFleetCell builds one fleet, populates every member's working set,
// cycles the kernel through a snapshot/restore at the phase boundary, and
// runs the shuffled verify sweep.
func runFleetCell(machines int, memoryBytes int64, link netdev.Params, codec string, seed int64, pages int32) (*cluster.Cluster, error) {
	donation := 0
	if machines > 1 {
		donation = 16
	}
	c, err := cluster.New(cluster.Config{
		Machines:       machines,
		MemoryBytes:    memoryBytes,
		Link:           link,
		Codec:          codec,
		Seed:           seed,
		DonationFrames: donation,
		Obs:            &obs.Options{},
	})
	if err != nil {
		return nil, err
	}
	spaces := make([]*machine.Space, c.Size())
	rngs := make([]*rand.Rand, c.Size())
	errs := make([]error, c.Size())
	for i := 0; i < c.Size(); i++ {
		i := i
		seed := c.SeedFor(i)
		c.Go(i, func(m *machine.Machine) {
			spaces[i], rngs[i] = populateFleet(m, pages, seed)
			errs[i] = m.Err()
		})
	}
	c.Run()
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	if err := c.SnapshotCycle(); err != nil {
		return nil, err
	}
	for i := 0; i < c.Size(); i++ {
		i := i
		c.Go(i, func(m *machine.Machine) {
			errs[i] = verifyFleet(spaces[i], pages, int64(m.Config().PageSize), rngs[i])
			if errs[i] == nil {
				errs[i] = m.Err()
			}
		})
	}
	c.Run()
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if err := c.CheckInvariants(); err != nil {
		return nil, err
	}
	return c, nil
}

// populateFleet writes a tagged working set several times physical memory:
// each page is half random 64-byte blocks (so codecs differ without pages
// becoming free to store), with a deterministic tag in word 0 that the
// verify phase checks after the pages have round-tripped through fleet
// memory or the server tier.
func populateFleet(m *machine.Machine, pages int32, seed int64) (*machine.Space, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	ps := int64(m.Config().PageSize)
	s := m.NewSegment("fleet", int64(pages)*ps)
	buf := make([]byte, ps)
	for p := int32(0); p < pages; p++ {
		for i := range buf {
			buf[i] = 0
		}
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

// verifyFleet sweeps the working set twice in a seed-shuffled order,
// checking every tag. A zero word is the dead-machine sentinel ReadWord
// returns after a fatal error; the caller reports that through m.Err.
func verifyFleet(s *machine.Space, pages int32, ps int64, rng *rand.Rand) error {
	for pass := 0; pass < 2; pass++ {
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

// ---------------------------------------------------------------------------
// Aggregate histogram percentiles.

// histAgg sums fault-service histograms across fleet members. Every
// histogram uses obs.DefaultBuckets, so counts add bucket by bucket in the
// ladder's order; the last slot is the overflow bucket.
type histAgg struct {
	counts [len(obs.DefaultBuckets) + 1]uint64
	total  uint64
}

func (a *histAgg) add(h obs.HistogramSnapshot) {
	a.total += h.Count
	for _, b := range h.Buckets {
		i := len(obs.DefaultBuckets)
		if b.Le >= 0 {
			i, _ = slices.BinarySearch(obs.DefaultBuckets[:], b.Le)
		}
		a.counts[i] += b.Count
	}
}

// quantile walks the cumulative distribution to the q-th observation and
// reports that bucket's upper bound; -1 means the quantile landed in the
// overflow bucket (or the histogram was empty).
func (a *histAgg) quantile(q float64) time.Duration {
	if a.total == 0 {
		return -1
	}
	need := uint64(q * float64(a.total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, le := range obs.DefaultBuckets {
		cum += a.counts[i]
		if cum >= need {
			return le
		}
	}
	return -1
}

func fmtQuantile(d time.Duration) string {
	if d < 0 {
		return ">max"
	}
	return "≤" + fmtDur(d)
}

func usOrNeg(d time.Duration) int64 {
	if d < 0 {
		return -1
	}
	return int64(d / time.Microsecond)
}

// ---------------------------------------------------------------------------
// JSONL trace artifact.

// fleetRec is one grid cell of the machine-readable sweep trace.
type fleetRec struct {
	Fleet       int    `json:"fleet"`
	Link        string `json:"link"`
	Codec       string `json:"codec"`
	Faults      uint64 `json:"faults"`
	RemoteIns   uint64 `json:"remote_ins"`
	ServerOps   uint64 `json:"server_ops"`
	Forwards    uint64 `json:"forwards"`
	TierHits    uint64 `json:"tier_hits"`
	TierMiss    uint64 `json:"tier_miss"`
	P50us       int64  `json:"p50_us"`
	P99us       int64  `json:"p99_us"`
	P999us      int64  `json:"p999_us"`
	FleetTimeUs int64  `json:"fleet_time_us"`
}

func writeFleetTrace[T any](path string, results []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
