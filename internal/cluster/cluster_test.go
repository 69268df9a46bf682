package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"compcache/internal/cluster"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/runner"
	"compcache/internal/workload"
)

// fleetPopulate is phase 1 of each member's program: write a working set
// several times physical memory, tagging every page. Three pages in four are
// incompressible (every eviction of one must leave the machine); the fourth
// is noise over zeros and goes through the member's own compression cache.
func fleetPopulate(m *machine.Machine, pages int32, seed int64) (*machine.Space, *rand.Rand) {
	ps := int64(m.Config().PageSize)
	s := m.NewSegment("fleet", int64(pages)*ps)
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, ps)
	for p := int32(0); p < pages; p++ {
		rng.Read(buf)
		if p%4 == 3 {
			clear(buf[ps/4:])
		}
		s.Write(int64(p)*ps, buf)
		s.WriteWord(int64(p)*ps, tag(seed, p))
	}
	return s, rng
}

// fleetVerify is phase 2: sweep the set twice in seed-shuffled order,
// verifying every tag — so any misrouted or stale remote copy shows up as a
// wrong word, not just a checksum failure. The shuffle also makes the fault
// sequence (and with it the whole fleet timeline) a function of the
// per-machine stream.
func fleetVerify(m *machine.Machine, s *machine.Space, pages int32, seed int64, rng *rand.Rand) error {
	ps := int64(m.Config().PageSize)
	for pass := 0; pass < 2; pass++ {
		for _, p := range rng.Perm(int(pages)) {
			if got := s.ReadWord(int64(p) * ps); got != tag(seed, int32(p)) && m.Err() == nil {
				return fmt.Errorf("pass %d page %d: got %#x want %#x", pass, p, got, tag(seed, int32(p)))
			}
		}
	}
	return m.Err()
}

func tag(seed int64, p int32) uint64 { return uint64(seed)<<24 ^ uint64(p)*0x9e3779b9 }

// runFleet drives a two-phase fleet run, optionally cycling the kernel
// through a snapshot/restore at the phase boundary.
func runFleet(cfg cluster.Config, pages int32, cycle bool) (*cluster.Cluster, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
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
	if cycle {
		if err := c.SnapshotCycle(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Size(); i++ {
		i := i
		c.Go(i, func(m *machine.Machine) {
			if errs[i] == nil {
				errs[i] = fleetVerify(m, spaces[i], pages, c.SeedFor(i), rngs[i])
			}
		})
	}
	c.Run()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if err := c.CheckInvariants(); err != nil {
		return nil, err
	}
	// The verify sweeps leave each member full of clean pages; the ones that
	// came back compressed are remembered that way, and the ones that left
	// have records in the plaintext ring (machine/memo.go).
	for i := 0; i < c.Size(); i++ {
		if err := c.Machine(i).VerifyCompressMemo(); err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
		if err := c.Machine(i).VerifyPlainMemo(); err != nil {
			return nil, fmt.Errorf("machine %d: %w", i, err)
		}
	}
	return c, nil
}

// TestFleetRoundTrip drives a 3-machine fleet through a shared server with
// donation enabled: pages must migrate machine-to-machine (forwards), spill
// into the server tier, come back intact, and be counted as remote-ins.
func TestFleetRoundTrip(t *testing.T) {
	cfg := cluster.Config{
		Machines:       3,
		MemoryBytes:    48 * 4096,
		Link:           netdev.Ethernet10(),
		Seed:           42,
		DonationFrames: 8,
	}
	c, err := runFleet(cfg, 96, false)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Server().Stats()
	if st.Ops == 0 {
		t.Fatal("fleet ran without touching the shared server")
	}
	if st.Forwards == 0 {
		t.Fatal("donation enabled but no machine-to-machine forwards happened")
	}
	var remoteIns uint64
	for i := 0; i < c.Size(); i++ {
		remoteIns += c.Machine(i).Stats().VM.RemoteIns
	}
	if remoteIns == 0 {
		t.Fatal("no fault was satisfied from fleet memory")
	}
	if c.Run() != c.Kernel.Now() {
		t.Fatal("idle re-run moved the fleet clock")
	}
}

// TestFleetSpillsWithoutDonation pins the fallback path: with no donated
// frames every remote placement must spill to the server's compressed tier,
// and reads back out of it must hit the tier or its disk.
func TestFleetSpillsWithoutDonation(t *testing.T) {
	cfg := cluster.Config{
		Machines:    2,
		MemoryBytes: 48 * 4096,
		Link:        netdev.Ethernet10(),
		Seed:        7,
	}
	c, err := runFleet(cfg, 96, false)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Server().Stats()
	if st.Forwards != 0 {
		t.Fatalf("no donation budget, yet %d forwards", st.Forwards)
	}
	if st.TierHits+st.TierMiss == 0 {
		t.Fatal("spilled pages never read back through the tier")
	}
}

// TestSeedForMembershipStable pins the satellite contract: a machine's PRNG
// stream is a function of (fleet seed, machine ID) alone, so growing the
// fleet never shifts a sibling's stream.
func TestSeedForMembershipStable(t *testing.T) {
	mk := func(n int) *cluster.Cluster {
		c, err := cluster.New(cluster.Config{Machines: n, MemoryBytes: 32 * 4096, Link: netdev.Ethernet10(), Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, big := mk(2), mk(5)
	for i := 0; i < small.Size(); i++ {
		if small.SeedFor(i) != big.SeedFor(i) {
			t.Fatalf("machine %d seed shifted when the fleet grew: %d vs %d", i, small.SeedFor(i), big.SeedFor(i))
		}
	}
	if small.SeedFor(0) == small.SeedFor(1) {
		t.Fatal("sibling machines share a seed")
	}
}

// fleetTrace renders everything observable about one fleet run as a byte
// string: per-machine metrics snapshots and stats, server counters, final
// fleet time.
func fleetTrace(cfg cluster.Config, pages int32, cycle bool) (string, error) {
	cfg.Obs = &obs.Options{}
	c, err := runFleet(cfg, pages, cycle)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i := 0; i < c.Size(); i++ {
		m := c.Machine(i)
		fmt.Fprintf(&sb, "== machine %d @ %d ==\n%s%s\n", i, m.Clock.Now(), m.Stats().String(), m.Metrics().String())
	}
	fmt.Fprintf(&sb, "server %+v\nfleet @ %d\n", c.Server().Stats(), c.Kernel.Now())
	return sb.String(), nil
}

// TestSnapshotCycleNoOp pins the phase-boundary snapshot contract: a fleet
// that cycles its kernel through SnapshotCycle between phases produces a
// byte-identical trace to one that never snapshots.
func TestSnapshotCycleNoOp(t *testing.T) {
	cfg := cluster.Config{
		Machines:       3,
		MemoryBytes:    48 * 4096,
		Link:           netdev.Ethernet10(),
		Seed:           5,
		DonationFrames: 8,
	}
	plain, err := fleetTrace(cfg, 96, false)
	if err != nil {
		t.Fatal(err)
	}
	cycled, err := fleetTrace(cfg, 96, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain != cycled {
		t.Fatalf("snapshot cycle perturbed the fleet trace (%d vs %d bytes)", len(plain), len(cycled))
	}
}

// TestClusterDeterminism is the tentpole's hard contract at fleet scale: a
// 3-machine cluster produces byte-identical traces — event ordering, every
// histogram, the shared server timeline — whether the sweep of fleets runs
// on one worker or eight. The kernel serializes actors inside each fleet, so
// host parallelism across fleets must not be able to perturb anything.
func TestClusterDeterminism(t *testing.T) {
	cells := []cluster.Config{
		{Machines: 3, MemoryBytes: 48 * 4096, Link: netdev.Ethernet10(), Seed: 1, DonationFrames: 8},
		{Machines: 3, MemoryBytes: 48 * 4096, Link: netdev.Ethernet10(), Seed: 2, DonationFrames: 8},
		{Machines: 3, MemoryBytes: 48 * 4096, Link: netdev.Wireless2(), Seed: 1},
		{Machines: 3, MemoryBytes: 32 * 4096, Link: netdev.Ethernet10(), Seed: 3, DonationFrames: 4},
	}
	render := func(ctx context.Context, i int) (string, error) {
		// Odd cells cycle the kernel through a snapshot at the phase
		// boundary; byte-identity must hold regardless.
		return fleetTrace(cells[i], 80, i%2 == 1)
	}
	serial, err := runner.Map(context.Background(), 1, len(cells), render)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.Map(context.Background(), 8, len(cells), render)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if serial[i] == "" {
			t.Fatalf("cell %d produced an empty trace", i)
		}
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: -j1 and -j8 fleet traces differ (%d vs %d bytes)", i, len(serial[i]), len(parallel[i]))
		}
	}
	if serial[0] == serial[1] {
		t.Fatal("different fleet seeds produced identical traces")
	}
}

// TestMultiInsideFleetActor composes the two clients of sim.Kernel: each fleet
// machine is an actor of the fleet's kernel, and its program is a
// workload.Multi, whose two members are actors of a kernel of Multi's own.
// The members' references advance the machine's clock, so a member goroutine
// blocks in the fleet kernel's Wait while its machine's actor goroutine sits in
// the inner kernel's Run. Two runs must agree on every machine's final clock
// and counters, with the time ledger balanced; CI runs this under -race.
func TestMultiInsideFleetActor(t *testing.T) {
	run := func() string {
		c, err := cluster.New(cluster.Config{
			Machines: 2, MemoryBytes: 48 * 4096, Link: netdev.Ethernet10(), Seed: 11, DonationFrames: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, c.Size())
		for i := 0; i < c.Size(); i++ {
			mix := &workload.Multi{QuantumRefs: 16, Workloads: []workload.Workload{
				&workload.Thrasher{Pages: 40, Write: true, Passes: 2, Seed: c.SeedFor(i)},
				&workload.Thrasher{Pages: 24 + 8*int32(i), Write: false, Passes: 3, CompressTarget: 0.95, Seed: c.SeedFor(i) + 1},
			}}
			c.Go(i, func(m *machine.Machine) { errs[i] = mix.Run(m) })
		}
		c.Run()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("machine %d: %v", i, err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := 0; i < c.Size(); i++ {
			m := c.Machine(i)
			if m.Stats().VM.RemoteIns == 0 {
				t.Fatalf("machine %d never paged from fleet memory: the mix does not exercise the fleet kernel", i)
			}
			fmt.Fprintf(&sb, "== machine %d @ %d ==\n%s\n", i, m.Clock.Now(), m.Stats().String())
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("a Multi inside a fleet actor is not reproducible:\n%s\nvs\n%s", a, b)
	}
}
